module J = Elk_obs.Jsonx

type entry = { key : string; v_old : float; v_new : float }

let delta e = e.v_new -. e.v_old

type t = {
  total_old : float;
  total_new : float;
  dominant_old : string;
  dominant_new : string;
  resources : entry list;
  segments : entry list;
}

(* ---- the snapshot core ----------------------------------------------- *)

type segment = { name : string; kind : string; resource : string; dur : float }

(* The four fields [snapshot_of_value] reads, written the one way every
   view's snapshot carries them. *)
let core_fields ~total ~dominant ~resources ~segments =
  let seg s =
    J.obj
      [
        J.field "name" (J.quote s.name);
        J.field "kind" (J.quote s.kind);
        J.field "resource" (J.quote s.resource);
        J.field "dur" (J.number6 s.dur);
      ]
  in
  [
    J.field "total" (J.number6 total);
    J.field "dominant" (J.quote dominant);
    J.field "resource_seconds"
      (J.obj (List.map (fun (k, v) -> J.field k (J.number6 v)) resources));
    J.field "segments" (J.arr (List.map seg segments));
  ]

(* ---- snapshot loading ------------------------------------------------ *)

let num ?(default = Float.nan) v k =
  match Option.bind (J.member k v) J.to_float with Some f -> f | None -> default

let str v k = Option.value ~default:"" (Option.bind (J.member k v) J.to_str)

(* A snapshot reduced to comparable keys.  Segments aggregate by
   (operator name, kind, resource): individual critical segments are not
   stable run to run (a path may enter an operator twice), but the time
   one operator's kind spends on one resource is. *)
type snapshot = {
  sn_total : float;
  sn_dominant : string;
  sn_resources : (string * float) list;
  sn_segments : (string * float) list;
}

let snapshot_of_value v =
  let total = num v "total" in
  if Float.is_nan total then Error "snapshot has no numeric \"total\" field"
  else
    let resources =
      match J.member "resource_seconds" v with
      | Some (J.Obj kvs) ->
          List.filter_map
            (fun (k, x) -> Option.map (fun f -> (k, f)) (J.to_float x))
            kvs
      | _ -> []
    in
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun seg ->
        let key =
          Printf.sprintf "%s/%s/%s" (str seg "name") (str seg "kind")
            (str seg "resource")
        in
        let d = num ~default:0. seg "dur" in
        match Hashtbl.find_opt tbl key with
        | Some cur -> Hashtbl.replace tbl key (cur +. d)
        | None ->
            Hashtbl.add tbl key d;
            order := key :: !order)
      (match J.member "segments" v with Some s -> J.to_list s | None -> []);
    let segments =
      List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order
    in
    Ok
      {
        sn_total = total;
        sn_dominant = str v "dominant";
        sn_resources = resources;
        sn_segments = segments;
      }

let snapshot_of_string s =
  match J.parse s with
  | Error m -> Error (Printf.sprintf "invalid JSON: %s" m)
  | Ok v -> snapshot_of_value v

(* Outer join of two key->seconds maps, old-snapshot key order first,
   new-only keys appended in their own order. *)
let join old_kvs new_kvs =
  let find k kvs = Option.value ~default:0. (List.assoc_opt k kvs) in
  let olds =
    List.map (fun (k, v) -> { key = k; v_old = v; v_new = find k new_kvs }) old_kvs
  in
  let news =
    List.filter_map
      (fun (k, v) ->
        if List.mem_assoc k old_kvs then None
        else Some { key = k; v_old = 0.; v_new = v })
      new_kvs
  in
  olds @ news

let diff ~old_json ~new_json =
  match (snapshot_of_string old_json, snapshot_of_string new_json) with
  | Error m, _ -> Error (Printf.sprintf "old snapshot: %s" m)
  | _, Error m -> Error (Printf.sprintf "new snapshot: %s" m)
  | Ok o, Ok n ->
      Ok
        {
          total_old = o.sn_total;
          total_new = n.sn_total;
          dominant_old = o.sn_dominant;
          dominant_new = n.sn_dominant;
          resources = join o.sn_resources n.sn_resources;
          segments = join o.sn_segments n.sn_segments;
        }

(* ---- gating ---------------------------------------------------------- *)

(* An entry regresses when it grows by more than [threshold] of the old
   makespan — an absolute yardstick, so many small segment regressions
   are individually forgiven but still caught by the total. *)
let scale d = Float.max (Float.abs d.total_old) 1e-12

let regressed_entries ~threshold d =
  let lim = threshold *. scale d in
  List.filter (fun e -> delta e > lim) d.resources
  @ List.filter (fun e -> delta e > lim) d.segments

let regressed ~threshold d =
  d.total_new -. d.total_old > threshold *. scale d
  || regressed_entries ~threshold d <> []

(* ---- rendering ------------------------------------------------------- *)

let us x = Printf.sprintf "%.1f" (x *. 1e6)

let pct d e =
  Printf.sprintf "%+.2f%%" (100. *. delta e /. scale d)

let sort_by_magnitude entries =
  List.stable_sort
    (fun a b -> compare (Float.abs (delta b), a.key) (Float.abs (delta a), b.key))
    entries

let tables ?(top = 12) d =
  let head =
    Elk_util.Table.create
      ~title:
        (Printf.sprintf "trace diff: makespan %s -> %s us (%+.2f%%), dominant %s -> %s"
           (us d.total_old) (us d.total_new)
           (100. *. (d.total_new -. d.total_old) /. scale d)
           d.dominant_old d.dominant_new)
      ~columns:[ "resource"; "old us"; "new us"; "delta us"; "of makespan" ]
  in
  List.iter
    (fun e ->
      Elk_util.Table.add_row head
        [ e.key; us e.v_old; us e.v_new; us (delta e); pct d e ])
    d.resources;
  let segs =
    Elk_util.Table.create
      ~title:(Printf.sprintf "top %d segment deltas (op/kind/resource)" top)
      ~columns:[ "segment"; "old us"; "new us"; "delta us"; "of makespan" ]
  in
  sort_by_magnitude d.segments
  |> List.filteri (fun i _ -> i < top)
  |> List.iter (fun e ->
         Elk_util.Table.add_row segs
           [ e.key; us e.v_old; us e.v_new; us (delta e); pct d e ]);
  [ head; segs ]

let print ?top d = List.iter Elk_util.Table.print (tables ?top d)

let to_json ~threshold d =
  let entry e =
    J.obj
      [
        J.field "key" (J.quote e.key);
        J.field "old" (J.number e.v_old);
        J.field "new" (J.number e.v_new);
        J.field "delta" (J.number (delta e));
      ]
  in
  J.obj
    [
      J.field "total_old" (J.number d.total_old);
      J.field "total_new" (J.number d.total_new);
      J.field "total_delta" (J.number (d.total_new -. d.total_old));
      J.field "dominant_old" (J.quote d.dominant_old);
      J.field "dominant_new" (J.quote d.dominant_new);
      J.field "threshold" (J.number threshold);
      J.field "regressed" (if regressed ~threshold d then "true" else "false");
      J.field "regressions"
        (J.arr (List.map entry (sort_by_magnitude (regressed_entries ~threshold d))));
      J.field "resources" (J.arr (List.map entry d.resources));
      J.field "segments" (J.arr (List.map entry (sort_by_magnitude d.segments)));
    ]
  ^ "\n"
