(** On-chip interconnect: topology, routing and link-load accounting.

    Elk targets two interconnect families (paper §5): the IPU-style
    all-to-all exchange, where any core reads any other core's SRAM at the
    link rate and concurrent transfers to/from one core serialize on that
    core's port; and the 2D mesh, where transfers traverse per-hop links
    under dimension-order (XY) routing and HBM controllers sit on the mesh
    edges.  This module gives both a common vocabulary: nodes, routes as
    link lists, per-link bandwidth, and a {!Load} accumulator that turns a
    set of transfers into per-link volumes — the quantity Elk's cost model
    uses for interconnect contention ("divide total traffic by link
    bandwidth", §4.3).

    Every link of a chip has a dense id, in the canonical
    {!compare_link} order, and each {!t} keeps a route table from
    (src, dst) to a {!path} — link ids, latency and bottleneck
    bandwidth — filled the first time a pair is asked for, so a
    simulator reads one table entry per transfer and keeps per-link
    state in arrays indexed by id.  It also owns the device program's
    routes (the preload fan-out and the two rings), so the simulator,
    the static interconnect profile and the deadlock lint read one
    definition of who sends to whom. *)

type node = Core of int | Hbm of int
(** Interconnect endpoints: cores and HBM controllers of one chip. *)

(** A unit of interconnect capacity that transfers serialize on.
    [Port_in]/[Port_out] are the per-node injection/ejection ports (the
    contended resource on the all-to-all fabric); [Edge] is a directed
    mesh link between adjacent cores; [Hbm_edge] attaches controller [h]
    to its boundary entry core. *)
type link =
  | Port_in of node
  | Port_out of node
  | Edge of { from_core : int; to_core : int }
  | Hbm_edge of { ctrl : int; entry : int }
  | L2_fabric
      (** the shared global fabric of a GPU-style clustered chip; carries
          all inter-cluster and HBM traffic. *)

type t
(** Links, routing table and capacities for one chip. *)

val create : Elk_arch.Arch.chip -> t
(** Build the interconnect for a chip: O(links), no route is computed
    until asked for.  Raises [Invalid_argument] if the chip fails
    {!Elk_arch.Arch.validate_chip}. *)

val chip : t -> Elk_arch.Arch.chip
val cores : t -> int
val is_mesh : t -> bool

val validate_node : t -> node -> bool
(** Node exists on this chip. *)

(** {2 Link ids} *)

val num_links : t -> int
(** Links a route can traverse on this chip: core ports and controller
    output ports (plus the L2 on a clustered chip) on the all-to-all
    fabric; controller output ports, directed edges and controller entry
    edges on a mesh. *)

val link_id : t -> link -> int
(** The link's dense id in [0 .. num_links - 1].  Ids follow the
    canonical order: [compare (link_id t a) (link_id t b) = compare_link a
    b].  Raises [Invalid_argument] for a link this chip does not have. *)

val link_of_id : t -> int -> link
(** Inverse of {!link_id}.  Raises [Invalid_argument] out of range. *)

(** {2 Routes} *)

type path = private {
  src : node;
  dst : node;
  ids : int array;  (** link ids traversed, in order; empty iff [src = dst]. *)
  latency : float;  (** per-hop latency times hops (one hop at least). *)
  bottleneck : float;
      (** raw bandwidth of the slowest link on the route; [infinity] when
          empty. *)
}
(** One entry of the route table. *)

val path : t -> src:node -> dst:node -> path
(** The table entry for [src] to [dst], computed on first use.  Raises
    [Invalid_argument] on unknown nodes or on a core→HBM-controller route
    (controllers only send). *)

val route : t -> src:node -> dst:node -> link list
(** Links traversed from [src] to [dst], in order (the {!path}'s ids).
    The empty list when [src = dst].  Raises like {!path}. *)

val hops : t -> src:node -> dst:node -> int
(** Length of {!route}. *)

val link_bandwidth : t -> link -> float
(** Capacity of one link in B/s.  Core ports run at the inter-core link
    rate; HBM controller ports and entry edges at the per-controller HBM
    rate. *)

val path_time : path -> bytes:float -> float
(** Uncontended time to move [bytes] along a path: route latency plus
    bytes over the bottleneck link bandwidth; 0 when [src = dst].
    Raises [Invalid_argument] on a negative size. *)

val transfer_time : t -> src:node -> dst:node -> bytes:float -> float
(** {!path_time} of the [src] to [dst] path. *)

val hbm_ctrl_for_core : t -> int -> node
(** The controller that serves a core's preload requests (cores are
    striped over controllers). *)

(** {2 The device program's routes}

    The three ways the device program moves data (§4.5), as arrays of
    {!path} entries indexed by the receiving core.  Each array is built
    on its first request and the same array is returned after that, so
    callers must not mutate it. *)

val preload_routes : t -> path array
(** Core [c]'s preload route: from {!hbm_ctrl_for_core} [c] to core
    [c], for every core of the chip. *)

val distribution_ring : t -> ncores:int -> path array
(** The distribution ring of an operator on cores [0 .. ncores - 1]:
    core [c] receives from core [(c + 1) mod ncores].  [ncores = 1]
    gives one empty route.  Raises [Invalid_argument] unless [0 <=
    ncores <= cores t]. *)

val exchange_ring : t -> ncores:int -> path array
(** The exchange ring, the distribution ring reversed: core [c]
    receives from core [(c + ncores - 1) mod ncores].  Raises like
    {!distribution_ring}. *)

val compare_link : link -> link -> int
(** A total order on links — the canonical ordering used by
    {!Load.fold}, deterministic across runs and worker counts.  Link ids
    follow it. *)

val link_name : link -> string
(** Stable human-readable name, e.g. ["port_in(core 3)"],
    ["edge(3->4)"], ["hbm_edge(0->12)"]. *)

(** Accumulate a set of transfers into per-link volumes, a float array
    by link id. *)
module Load : sig
  type loads

  val create : t -> loads

  val add_path : loads -> path -> bytes:float -> unit
  (** Attribute [bytes] to every link of a route already looked up with
      {!path} on the same {!t}, so that a caller booking one route many
      times looks it up once.  Raises [Invalid_argument] on a negative
      size. *)

  val add : loads -> src:node -> dst:node -> bytes:float -> unit
  (** {!add_path} of the [src] to [dst] {!path}. *)

  val volume_on : loads -> link -> float

  val fold : loads -> ('a -> link -> float -> 'a) -> 'a -> 'a
  (** [fold l f init] folds [f] over every (link, volume) pair of the
      links some {!add} routed over, in id order — the canonical
      {!compare_link} order, whatever the insertion order.  {!busiest}
      is a fold over this. *)

  val busiest : loads -> (link * float) option
  (** Most loaded link by transfer time [volume / bandwidth]; ties
      resolve to the link earliest in the canonical {!compare_link}
      order. *)
end
