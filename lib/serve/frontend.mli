(** Serving front-end: admission queue + FCFS batch forming over the
    {!Serve} decode loop, on a simulated clock.

    Requests from {!Workload} arrive over time; whenever the engine is
    free, the oldest queued requests (up to [max_batch]) are admitted as
    one batch, padded to a common shape, and generated with
    {!Serve.generate} over the run's one {!Serve.memo} — static batching
    where compile work amortizes across the workload.  Every lifecycle
    timestamp is simulated; results are byte-deterministic for a given
    request list at any jobs count. *)

type req_trace = {
  req : Workload.request;
  batch_id : int;
  admitted : float;  (** when its batch formed (= queue exit) *)
  prefill_end : float;
  first_token : float;  (** completion of its first decode token *)
  finish : float;  (** completion of its last decode token *)
  itls : float list;  (** inter-token latencies, length [output_len - 1] *)
}

type batch_trace = {
  b_id : int;
  b_size : int;  (** admitted requests *)
  b_bucket : int;  (** padded batch size the plan was built for *)
  b_prompt_ctx : int;  (** padded prompt length *)
  b_tokens : int;  (** decode steps actually timed (longest member) *)
  b_formed : float;
  b_prefill : float;  (** simulated prefill latency *)
  b_end : float;
  b_step_ends : float array;  (** completion time of decode step [k] *)
  b_live : int array;  (** requests still generating at step [k] *)
  b_fresh_plans : int;  (** its generation's [recompilations]; 0 on a repeated shape *)
  b_highwater : float;
      (** peak static per-core SRAM bytes across the plans serving this
          batch ({!Serve.run.highwater} of its generation) *)
  b_busiest_link : string;
      (** hottest interconnect link across the plans serving this batch
          ({!Serve.run.busiest_link}; [""] when [run] was called without
          [noc]) *)
  b_link_busy : float;  (** that link's reservation seconds (0 without [noc]) *)
}

type result = {
  requests : req_trace list;  (** in request-id (= arrival) order *)
  batches : batch_trace list;  (** in formation order *)
  makespan : float;  (** completion time of the last batch *)
  distinct_shapes : int;  (** padded shapes the run saw *)
  recompilations : int;  (** the [b_fresh_plans] sum *)
}

val run :
  ?design:Elk_baselines.Baselines.design ->
  ?recompile_every:int ->
  ?elk_options:Elk.Compile.options ->
  ?jobs:int ->
  ?max_batch:int ->
  ?noc:bool ->
  Elk_dse.Dse.env ->
  Elk_model.Zoo.config ->
  Workload.request list ->
  result
(** Serve the whole request list.  [max_batch] (default 8) bounds batch
    size; batches pad to the next power of two, prompts to the plan
    quantum ([recompile_every], default 64), token counts to a multiple
    of 16.  Every batch's generation reads the run's one {!Serve.memo},
    so each phase is planned and simulated once per run; the memo needs
    no cap, and [elk_serve_recompiles_total] counts the decode phases
    planned.  [elk_serve_step_latency_seconds] holds each batch's
    [b_tokens] timed steps, not its padding.  The run's set of padded
    shapes serves only the accounting fields.  [noc] (default false)
    records per-link interconnect traffic
    in each plan's simulation and fills the [b_busiest_link] /
    [b_link_busy] batch fields; latencies are identical either way.  Raises
    [Invalid_argument] on an empty or out-of-order request list or a
    nonpositive [max_batch]. *)

val queue_wait : req_trace -> float
(** Arrival to batch admission. *)

val ttft : req_trace -> float
(** Arrival to first decode-token completion. *)

val timeseries :
  ?window:float -> ?mem:bool -> ?noc:bool -> result -> Elk_obs.Timeseries.t
(** Replay the lifecycle into a {!Elk_obs.Timeseries}: [queue_depth] and
    [inflight_requests] gauges, [tokens_completed] / [tokens_padded]
    counters per decode step, and rolling [ttft] / [itl] / [queue_wait]
    histograms.  With [mem] (default false) also a
    [sram_highwater_per_core] gauge stepping at each batch formation;
    with [noc] (default false) a [noc_busiest_link_busy] gauge of the
    hottest link's reservation seconds, stepping the same way (the
    result must come from {!run} with [noc] for it to be non-zero).
    [window] defaults to [makespan / 48].  Raises [Invalid_argument]
    when [window] would cut the makespan into more than
    {!Elk_obs.Timeseries.max_windows} windows. *)

val serving_pid : int
(** Perfetto process id the serving tracks live under. *)

val chrome_events : result -> string list
(** Per-request queued/prefill/decode slices on one lane per request, a
    batch lane, and flow arrows from each request's admission to its
    batch — ready for {!Elk_obs.Chrome.write}. *)
