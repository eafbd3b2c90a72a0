type buckets = {
  mutable compute : float;
  mutable exchange : float;
  mutable preload_wait : float;
  mutable port : float;
  mutable idle : float;
}

type op_attrib = {
  mutable a_hbm : float;
  mutable a_interconnect : float;
  mutable a_compute : float;
  mutable a_port : float;
}

type t = { per_core : buckets array; per_op : op_attrib array }

let create ~cores ~ops =
  {
    per_core =
      Array.init cores (fun _ ->
          { compute = 0.; exchange = 0.; preload_wait = 0.; port = 0.; idle = 0. });
    per_op =
      Array.init ops (fun _ -> { a_hbm = 0.; a_interconnect = 0.; a_compute = 0.; a_port = 0. });
  }

let bucket_sum b = b.compute +. b.exchange +. b.preload_wait +. b.port +. b.idle
let busy b = b.compute +. b.exchange +. b.port
let attrib_sum a = a.a_hbm +. a.a_interconnect +. a.a_compute +. a.a_port

let imbalance t =
  let n = Array.length t.per_core in
  if n = 0 then 0.
  else begin
    let mx = ref 0. and sum = ref 0. in
    Array.iter
      (fun b ->
        let v = busy b in
        if v > !mx then mx := v;
        sum := !sum +. v)
      t.per_core;
    let mean = !sum /. float_of_int n in
    if mean <= 0. then 0. else !mx /. mean
  end

let check t ~total =
  let bad_core = ref None in
  Array.iteri
    (fun c b ->
      if !bad_core = None && Elk_util.Stats.rel_err (bucket_sum b) total > 1e-6 then
        bad_core := Some (c, bucket_sum b))
    t.per_core;
  match !bad_core with
  | Some (c, s) ->
      Error
        (Printf.sprintf "core %d: bucket sum %.9g != makespan %.9g (rel %.3g)" c s
           total (Elk_util.Stats.rel_err s total))
  | None ->
      let op_sum = Array.fold_left (fun a o -> a +. attrib_sum o) 0. t.per_op in
      if Elk_util.Stats.rel_err op_sum total > 1e-6 then
        Error
          (Printf.sprintf "per-op attribution sum %.9g != makespan %.9g (rel %.3g)"
             op_sum total (Elk_util.Stats.rel_err op_sum total))
      else Ok ()
