(** Channel-dependency-graph deadlock analysis over {!Elk_noc} routes.

    Nodes are interconnect links; a transfer acquiring link L1 then L2
    along its route contributes the edge L1 -> L2 (holding L1 while
    waiting for L2).  A cycle is a potential circular wait: every link
    held by a transfer that waits for the next ([deadlock.cycle]); a
    route that acquires the same link twice deadlocks against itself
    ([deadlock.self-loop]).  Transfers are the plan's distribution and
    exchange rings as {!Elk_noc.Noc} lays them out — the per-core
    send/recv pairings the {!Hb} DAG contracts into each operator's tail
    node — grouped per (operator, phase) since only those hold links
    concurrently.  XY mesh routing and the bipartite all-to-all fabric
    are acyclic by construction, so compiled plans prove clean; the
    rules guard hand-written plans and future adaptive or fused
    communication phases. *)

type phase = Dist | Exch

val phase_name : phase -> string

type transfer = { t_op : int; t_phase : phase; t_route : Elk_noc.Noc.link list }

val transfers_of_schedule :
  Elk_noc.Noc.t -> Elk.Schedule.t -> transfer list
(** The plan's ring transfers: for each op, in id order, and each phase
    that moves bytes, distribution before exchange, every non-empty
    route of {!Elk_noc.Noc.distribution_ring} or
    {!Elk_noc.Noc.exchange_ring} over the op's cores, cores ascending.
    These are the routes [Elk_sim.Sim.run] books, core for core. *)

type cycle = {
  cy_links : Elk_noc.Noc.link list;  (** the circular wait, in order. *)
  cy_ops : (int * phase) list;  (** contributor of each CDG edge. *)
}

val find_cycle : transfer list -> cycle option
(** Build the CDG of a set of concurrent transfers and return a cycle if
    one exists (deterministic first-found).  Exposed for synthetic-route
    unit tests: the deployed topologies never produce one. *)

val route_self_loop : transfer -> Elk_noc.Noc.link option
(** The first link a route acquires twice, if any. *)

val check :
  emit:
    (string ->
    Diag.location ->
    (string * Diag.value) list ->
    string ->
    unit) ->
  on:(string -> bool) ->
  Elk_noc.Noc.t ->
  Elk.Schedule.t ->
  unit
