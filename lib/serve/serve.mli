(** Multi-token serving: autoregressive decoding as a system-level loop.

    The paper evaluates single decode steps; a serving system generates
    many tokens, and the KV cache — hence every attention operator's shape
    and HBM volume — grows each step.  This module drives that loop: it
    compiles a plan for the current context length, simulates decode steps
    with it, and recompiles when the context has grown enough that the
    plan's shapes are stale (amortizing Elk's compile time across steps,
    exactly how a deployment would run it).

    The result quantifies end-to-end serving: tokens/second over a whole
    generation, the latency growth as the KV cache fills, and how many
    recompilations the run needed. *)

type step = {
  token : int;  (** 0-based generated-token index. *)
  ctx : int;  (** KV length the step ran with. *)
  latency : float;  (** simulated step latency incl. all-reduce. *)
  recompiled : bool;  (** first step of the generation on this context bucket. *)
}

type run = {
  steps : step list;
  prefill_latency : float;
      (** simulated prefill-phase latency (0 when [prefill] was false). *)
  total_time : float;  (** sum of decode-step latencies. *)
  compile_time : float;
      (** wall-clock seconds in {!Elk_baselines.Baselines.plan} for the
          phases this generation planned; simulation is not counted. *)
  tokens_per_second : float;  (** steps / total_time (excl. compile). *)
  recompilations : int;  (** decode plans used: one per context bucket. *)
  highwater : float;
      (** peak static per-core SRAM demand (bytes) across the plans of
          the generation's phases, prefill included — the
          {!Elk.Residency} high water of each schedule. *)
  busiest_link : string;
      (** name of the busiest interconnect link (by reservation time)
          across the generation's phases, when the memo was made with
          [noc]; [""] otherwise. *)
  link_busy : float;
      (** that link's reservation seconds; [0.] without [noc]. *)
}

type memo
(** The phase memo of one serving run.  A phase is a prefill of (batch,
    prompt length) or a decode step at (batch, context bucket); the memo
    plans, ledgers and simulates each once per run.  It dies with the
    run, so the compile cache is the only store that outlives it and
    every phase a run plans passes the verifier gate. *)

val memo :
  ?design:Elk_baselines.Baselines.design ->
  ?elk_options:Elk.Compile.options ->
  ?noc:bool ->
  Elk_dse.Dse.env ->
  Elk_model.Zoo.config ->
  memo
(** Start a serving run.  [design] defaults to [Elk_full]; [noc]
    (default false) records per-link traffic in each phase's simulation
    for [busiest_link]/[link_busy] — latencies are identical either
    way.  Resets the [elk_serve_step_latency_seconds] histogram.  Raises
    [Invalid_argument] for [Ideal], which has no executable plan. *)

val generate :
  ?recompile_every:int -> ?prefill:bool -> memo -> batch:int -> prompt_ctx:int ->
  tokens:int -> run
(** Generate [tokens] tokens for a [batch] whose prompt occupies
    [prompt_ctx] KV entries, planning only the phases the memo lacks.
    Decode plans serve contexts rounded up to the next [recompile_every]
    boundary (default 64); [prefill] (default false) first runs the
    prompt through a prefill plan, giving a time-to-first-token.  Sets
    [elk_serve_tokens_per_second]; [elk_serve_recompiles_total] counts
    decode phases planned, once per phase per run.  Its caller decides
    which steps were timed and feeds them to {!observe_step}.  Raises
    [Invalid_argument] for nonpositive [tokens]/[batch]/[prompt_ctx]. *)

val observe_step : float -> unit
(** Record one timed decode step's latency in the
    [elk_serve_step_latency_seconds] histogram.  {!serve} observes every
    step of its generation; [Frontend.run] observes each batch's first
    [b_tokens] steps, the ones its requests wait for. *)

val serve :
  ?design:Elk_baselines.Baselines.design ->
  ?recompile_every:int ->
  ?prefill:bool ->
  ?elk_options:Elk.Compile.options ->
  ?noc:bool ->
  Elk_dse.Dse.env ->
  Elk_model.Zoo.config ->
  batch:int ->
  prompt_ctx:int ->
  tokens:int ->
  run
(** One serving run: {!generate} over a fresh {!memo}, every step
    observed ({!observe_step}).  Plans are identical whatever the
    size of the shared compilation pool ({!Elk_util.Pool.set_jobs}). *)

val time_to_first_token : run -> float
(** [prefill_latency] plus the first decode step's latency. *)

val mean_latency : run -> float
val last_latency : run -> float

val tokens_per_second : run -> float
(** Throughput recomputed from the recorded steps: steps / total decode
    time, and 0 for degenerate runs (no steps, or zero total time) —
    never a division by zero, unlike reading the raw field off a
    hand-built [run]. *)

val pp_run : Format.formatter -> run -> unit
