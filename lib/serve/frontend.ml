(* Serving front-end: admission queue + FCFS batch forming over the
   Serve decode loop, on a simulated clock.

   Requests (from Workload) arrive over time; the engine serves one
   batch at a time.  Whenever the engine is free, the front-end admits
   the oldest queued requests (up to [max_batch]) as one batch, pads
   them to a common shape, and replays a Serve.serve generation for
   that shape: prefill, then one decode step per token, each step's
   simulated latency advancing the clock.  A request completes when its
   own output length is reached; the batch holds the engine until its
   longest member finishes (static batching — the padding waste is
   exactly what the goodput metric reports, and what a future
   continuous-batching scheduler would reclaim).

   Plan sharing: batches are padded to bucketed shapes (batch size to
   the next power of two, prompt length to the plan quantum, token
   count to a multiple of 16), and every batch's generation reads one
   Serve phase memo for the whole run — each prefill and decode phase
   is planned and simulated once, so compile work amortizes across the
   whole workload.

   Everything here is simulated time; no wall-clock value enters any
   trace or lifecycle field, so runs are byte-deterministic for a given
   seed at any jobs count. *)

module B = Elk_baselines.Baselines

type req_trace = {
  req : Workload.request;
  batch_id : int;
  admitted : float;  (* when its batch formed (= queue exit) *)
  prefill_end : float;
  first_token : float;  (* completion of its first decode token *)
  finish : float;  (* completion of its last decode token *)
  itls : float list;  (* inter-token latencies, length output_len - 1 *)
}

type batch_trace = {
  b_id : int;
  b_size : int;  (* admitted requests *)
  b_bucket : int;  (* padded batch size the plan was built for *)
  b_prompt_ctx : int;  (* padded prompt length *)
  b_tokens : int;  (* decode steps actually timed (longest member) *)
  b_formed : float;
  b_prefill : float;  (* simulated prefill latency *)
  b_end : float;
  b_step_ends : float array;  (* completion time of decode step k *)
  b_live : int array;  (* requests still generating at step k *)
  b_fresh_plans : int;  (* its generation's recompilations (0 on a repeated shape) *)
  b_highwater : float;  (* peak static per-core SRAM bytes of its plans *)
  b_busiest_link : string;  (* hottest interconnect link of its plans ("" without noc) *)
  b_link_busy : float;  (* that link's reservation seconds (0 without noc) *)
}

type result = {
  requests : req_trace list;  (* in arrival order *)
  batches : batch_trace list;  (* in formation order *)
  makespan : float;  (* completion of the last batch *)
  distinct_shapes : int;  (* padded shapes the run saw *)
  recompilations : int;  (* decode plans across the distinct shapes' generations *)
}

let round_up v quantum = (v + quantum - 1) / quantum * quantum

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let token_quantum = 16

let run ?(design = B.Elk_full) ?(recompile_every = 64) ?elk_options
    ?(max_batch = 8) ?noc env cfg requests =
  if requests = [] then invalid_arg "Frontend.run: no requests";
  if max_batch <= 0 then invalid_arg "Frontend.run: max_batch must be positive";
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Workload.arrival_s <= b.Workload.arrival_s && sorted rest
    | _ -> true
  in
  if not (sorted requests) then
    invalid_arg "Frontend.run: requests must be in arrival order";
  let memo = Serve.memo ~design ?elk_options ?noc env cfg in
  (* The run's padded shapes, for accounting only. *)
  let shapes = Hashtbl.create 8 in
  let rec take_batch acc k t = function
    | r :: rest when k < max_batch && r.Workload.arrival_s <= t ->
        take_batch (r :: acc) (k + 1) t rest
    | rest -> (List.rev acc, rest)
  in
  let rec loop free b_id pending reqs_acc batches_acc =
    match pending with
    | [] -> (List.rev reqs_acc, List.rev batches_acc, free)
    | head :: _ ->
        let t_form = Float.max free head.Workload.arrival_s in
        let admitted, rest = take_batch [] 0 t_form pending in
        let size = List.length admitted in
        let bucket = min (next_pow2 size) (next_pow2 max_batch) in
        let prompt_max =
          List.fold_left (fun a r -> max a r.Workload.prompt_len) 1 admitted
        in
        let prompt_ctx = round_up prompt_max recompile_every in
        let needed =
          List.fold_left (fun a r -> max a r.Workload.output_len) 1 admitted
        in
        let tokens = round_up needed token_quantum in
        let sr =
          Serve.generate ~recompile_every ~prefill:true memo ~batch:bucket
            ~prompt_ctx ~tokens
        in
        (* A shape's first batch counts its generation's decode plans. *)
        let fresh =
          if Hashtbl.mem shapes (bucket, prompt_ctx, tokens) then 0
          else begin
            Hashtbl.add shapes (bucket, prompt_ctx, tokens) ();
            sr.Serve.recompilations
          end
        in
        let prefill_end = t_form +. sr.Serve.prefill_latency in
        let lats = Array.of_list (List.map (fun s -> s.Serve.latency) sr.Serve.steps) in
        let step_ends = Array.make needed prefill_end in
        let t = ref prefill_end in
        for k = 0 to needed - 1 do
          t := !t +. lats.(k);
          step_ends.(k) <- !t;
          Serve.observe_step lats.(k)
        done;
        let live =
          Array.init needed (fun k ->
              List.length (List.filter (fun r -> r.Workload.output_len > k) admitted))
        in
        let b_end = step_ends.(needed - 1) in
        let traces =
          List.map
            (fun (r : Workload.request) ->
              let last = r.Workload.output_len - 1 in
              {
                req = r;
                batch_id = b_id;
                admitted = t_form;
                prefill_end;
                first_token = step_ends.(0);
                finish = step_ends.(last);
                itls = List.init last (fun k -> lats.(k + 1));
              })
            admitted
        in
        let batch =
          {
            b_id;
            b_size = size;
            b_bucket = bucket;
            b_prompt_ctx = prompt_ctx;
            b_tokens = needed;
            b_formed = t_form;
            b_prefill = sr.Serve.prefill_latency;
            b_end;
            b_step_ends = step_ends;
            b_live = live;
            b_fresh_plans = fresh;
            b_highwater = sr.Serve.highwater;
            b_busiest_link = sr.Serve.busiest_link;
            b_link_busy = sr.Serve.link_busy;
          }
        in
        Elk_obs.Logger.debug ~src:"frontend"
          ~kvs:
            [
              ("batch", string_of_int b_id);
              ("size", string_of_int size);
              ("bucket", string_of_int bucket);
              ("prompt_ctx", string_of_int prompt_ctx);
              ("tokens", string_of_int needed);
            ]
          "batch formed";
        loop b_end (b_id + 1) rest (List.rev_append traces reqs_acc)
          (batch :: batches_acc)
  in
  let requests', batches, makespan = loop 0. 0 requests [] [] in
  let requests' =
    List.sort (fun a b -> compare a.req.Workload.req_id b.req.Workload.req_id) requests'
  in
  Elk_obs.Metrics.incr "elk_frontend_batches_total"
    ~by:(float_of_int (List.length batches))
    ~help:"Batches formed by the serving front-end";
  Elk_obs.Metrics.set "elk_frontend_plan_cache_misses"
    (float_of_int (Hashtbl.length shapes))
    ~help:"Distinct padded shapes the serving front-end compiled plans for";
  {
    requests = requests';
    batches;
    makespan;
    distinct_shapes = Hashtbl.length shapes;
    recompilations = List.fold_left (fun a b -> a + b.b_fresh_plans) 0 batches;
  }

(* ---- per-request derived metrics ------------------------------------- *)

let queue_wait t = t.admitted -. t.req.Workload.arrival_s
let ttft t = t.first_token -. t.req.Workload.arrival_s

(* ---- time-series recording ------------------------------------------- *)

(* Replay the lifecycle into a Timeseries: queue depth and in-flight
   gauges driven by arrival/admission/finish edges, goodput/padded token
   counters per decode step, and rolling TTFT/ITL histograms.  Events
   are generated in chronological order per series, so gauge integration
   is exact. *)
let timeseries ?window ?(mem = false) ?(noc = false) r =
  let window =
    match window with
    | Some w -> w
    | None -> Elk_obs.Timeseries.default_window ~horizon:r.makespan
  in
  let ts = Elk_obs.Timeseries.create ~window ~horizon:r.makespan () in
  (* queue depth: +1 on arrival, -size when a batch forms *)
  let edges =
    List.map (fun t -> (t.req.Workload.arrival_s, 0, 1)) r.requests
    @ List.map (fun b -> (b.b_formed, 1, -b.b_size)) r.batches
  in
  let edges =
    List.stable_sort (fun (ta, pa, _) (tb, pb, _) -> compare (ta, pa) (tb, pb)) edges
  in
  let depth = ref 0 in
  Elk_obs.Timeseries.set ts "queue_depth" ~time:0. 0.
    ~help:"Requests admitted yet";
  List.iter
    (fun (t, _, d) ->
      depth := !depth + d;
      Elk_obs.Timeseries.set ts "queue_depth" ~time:t (float_of_int !depth))
    edges;
  (* in-flight requests: +size at admission, -1 as each member finishes *)
  let flight =
    List.map (fun b -> (b.b_formed, 0, b.b_size)) r.batches
    @ List.map (fun t -> (t.finish, 1, -1)) r.requests
  in
  let flight =
    List.stable_sort (fun (ta, pa, _) (tb, pb, _) -> compare (ta, pa) (tb, pb)) flight
  in
  let inflight = ref 0 in
  Elk_obs.Timeseries.set ts "inflight_requests" ~time:0. 0.
    ~help:"Admitted requests still generating";
  List.iter
    (fun (t, _, d) ->
      inflight := !inflight + d;
      Elk_obs.Timeseries.set ts "inflight_requests" ~time:t (float_of_int !inflight))
    flight;
  (* tokens: per decode step, [live] slots produce useful tokens and the
     rest of the padded batch burns compute *)
  List.iter
    (fun b ->
      Array.iteri
        (fun k t_end ->
          let live = b.b_live.(k) in
          Elk_obs.Timeseries.add ts "tokens_completed" ~time:t_end
            (float_of_int live)
            ~help:"Useful (non-padding) tokens completed";
          if b.b_bucket > live then
            Elk_obs.Timeseries.add ts "tokens_padded" ~time:t_end
              (float_of_int (b.b_bucket - live))
              ~help:"Padded batch slots computed but discarded")
        b.b_step_ends)
    r.batches;
  (* SRAM occupancy gauge (opt-in): the per-core high water of whichever
     plan set is serving the engine, stepping at each batch formation *)
  if mem then begin
    Elk_obs.Timeseries.set ts "sram_highwater_per_core" ~time:0. 0.
      ~help:"Peak static per-core SRAM bytes of the plans serving each batch";
    List.iter
      (fun b ->
        Elk_obs.Timeseries.set ts "sram_highwater_per_core" ~time:b.b_formed
          b.b_highwater)
      r.batches
  end;
  (* busiest interconnect link gauge (opt-in): reservation seconds on
     the hottest link of whichever plan set is serving the engine,
     stepping at each batch formation *)
  if noc then begin
    Elk_obs.Timeseries.set ts "noc_busiest_link_busy" ~time:0. 0.
      ~help:
        "Reservation seconds on the hottest interconnect link of the plans \
         serving each batch";
    List.iter
      (fun b ->
        Elk_obs.Timeseries.set ts "noc_busiest_link_busy" ~time:b.b_formed
          b.b_link_busy)
      r.batches
  end;
  (* rolling latency distributions *)
  List.iter
    (fun t ->
      Elk_obs.Timeseries.observe ts "ttft" ~time:t.first_token (ttft t)
        ~help:"Time to first token (arrival to first decode completion)";
      Elk_obs.Timeseries.observe ts "queue_wait" ~time:t.admitted (queue_wait t)
        ~help:"Time from arrival to batch admission";
      List.iter
        (fun itl ->
          Elk_obs.Timeseries.observe ts "itl" ~time:t.finish itl
            ~help:"Inter-token latency samples")
        t.itls)
    r.requests;
  ts

(* ---- Chrome/Perfetto lifecycle export -------------------------------- *)

let serving_pid = 7

(* Track layout under one "serving" process: tid 1 is the batch lane,
   every request gets its own lane above it.  Queued/prefill/decode
   phases are complete events; a flow arrow links each request's queued
   slice to its batch's slice. *)
let chrome_events r =
  let meta =
    Elk_obs.Chrome.thread_name ~pid:serving_pid ~tid:1 "serving: batches"
    :: List.map
         (fun t ->
           Elk_obs.Chrome.thread_name ~pid:serving_pid
             ~tid:(t.req.Workload.req_id + 2)
             (Printf.sprintf "req %d" t.req.Workload.req_id))
         r.requests
  in
  let batch_slices =
    List.map
      (fun b ->
        Elk_obs.Chrome.complete_event ~pid:serving_pid ~tid:1
          ~name:(Printf.sprintf "batch %d (%d reqs)" b.b_id b.b_size)
          ~cat:"serve" ~start:b.b_formed
          ~dur:(b.b_end -. b.b_formed)
          ~args:
            [
              ("size", string_of_int b.b_size);
              ("bucket", string_of_int b.b_bucket);
              ("prompt_ctx", string_of_int b.b_prompt_ctx);
              ("tokens", string_of_int b.b_tokens);
              ("fresh_plans", string_of_int b.b_fresh_plans);
            ]
          ())
      r.batches
  in
  let req_slices =
    List.concat_map
      (fun t ->
        let tid = t.req.Workload.req_id + 2 in
        let arrive = t.req.Workload.arrival_s in
        let args =
          [
            ("batch", string_of_int t.batch_id);
            ("prompt", string_of_int t.req.Workload.prompt_len);
            ("output", string_of_int t.req.Workload.output_len);
          ]
        in
        let slice name start stop =
          Elk_obs.Chrome.complete_event ~pid:serving_pid ~tid ~name ~cat:"serve"
            ~start ~dur:(stop -. start) ~args ()
        in
        let flow_id = 100000 + t.req.Workload.req_id in
        [
          slice "queued" arrive t.admitted;
          slice "prefill" t.admitted t.prefill_end;
          slice "decode" t.prefill_end t.finish;
          Elk_obs.Chrome.flow_start ~pid:serving_pid ~tid ~name:"admit"
            ~cat:"serve" ~id:flow_id ~ts:t.admitted ();
          Elk_obs.Chrome.flow_end ~pid:serving_pid ~tid:1 ~name:"admit"
            ~cat:"serve" ~id:flow_id ~ts:t.admitted ();
        ])
      r.requests
  in
  meta @ batch_slices @ req_slices
