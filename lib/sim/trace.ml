(* JSON escaping is shared with the Elk_obs exporters (Elk_obs.Jsonx): the
   old local escaper missed control characters, so an operator name with a
   tab or carriage return produced invalid JSON. *)

let event ~name ~tid ~start ~dur ~args =
  Elk_obs.Chrome.complete_event ~tid ~name ~cat:"elk" ~start ~dur ~args ()

let phases (o : Sim.op_trace) =
  [
    ("distribute", o.Sim.exe_start, o.Sim.dist_end -. o.Sim.exe_start);
    ("compute", o.Sim.dist_end, o.Sim.compute_end -. o.Sim.dist_end);
    ("exchange", o.Sim.compute_end, o.Sim.exe_end -. o.Sim.compute_end);
  ]
  |> List.filter (fun (_, _, d) -> d > 0.)

let chrome_events graph (r : Sim.result) =
  let name i =
    (Elk_model.Graph.get graph i).Elk_model.Graph.op.Elk_tensor.Opspec.name
  in
  let acc = ref [] in
  Array.iteri
    (fun i (o : Sim.op_trace) ->
      if o.Sim.pre_end > o.Sim.pre_start then
        acc :=
          event
            ~name:(Printf.sprintf "preload %s" (name i))
            ~tid:1 ~start:o.Sim.pre_start
            ~dur:(o.Sim.pre_end -. o.Sim.pre_start)
            ~args:[ ("hbm_bytes", Printf.sprintf "%.0f" o.Sim.device_bytes) ]
          :: !acc;
      List.iter
        (fun (phase, start, dur) ->
          acc :=
            event
              ~name:(Printf.sprintf "%s %s" phase (name i))
              ~tid:2 ~start ~dur ~args:[]
            :: !acc)
        (phases o))
    r.Sim.per_op;
  List.rev !acc

(* Flow arrows along the causal critical path.  Each event maps into the
   slice that [chrome_events] renders it inside: preload-side kinds live
   in the tid-1 "preload" slice, execute phases in their tid-2 phase
   slice.  Consecutive chain events in the same slice (HBM read and
   delivery of one preload) need no arrow. *)
let track_of = function
  | Critpath.Preload_issue | Critpath.Hbm_read | Critpath.Preload_deliver -> 1
  | Critpath.Distribute | Critpath.Tile_compute | Critpath.Exchange -> 2
  | Critpath.Sched_gap -> 2

let same_slice (a : Critpath.event) (b : Critpath.event) =
  a.Critpath.op = b.Critpath.op && track_of a.Critpath.kind = 1
  && track_of b.Critpath.kind = 1

let flow_events (s : Critpath.summary) =
  let ev i = s.Critpath.events.(i) in
  let rec go acc id = function
    | a :: (b :: _ as rest) ->
        let pa = ev a and pb = ev b in
        let acc =
          if same_slice pa pb then acc
          else
            Elk_obs.Chrome.flow_end ~tid:(track_of pb.Critpath.kind)
              ~name:"critical-path" ~id ~ts:pb.Critpath.t_start ()
            :: Elk_obs.Chrome.flow_start
                 ~tid:(track_of pa.Critpath.kind)
                 ~name:"critical-path" ~id ~ts:pa.Critpath.t_end ()
            :: acc
        in
        go acc (id + 1) rest
    | _ -> List.rev acc
  in
  go [] 1 s.Critpath.crit_ids

let chrome_meta =
  [
    Elk_obs.Chrome.thread_name ~pid:1 ~tid:1 "HBM preload";
    Elk_obs.Chrome.thread_name ~pid:1 ~tid:2 "on-chip execute";
  ]
