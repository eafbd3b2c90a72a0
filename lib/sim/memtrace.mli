(** Dynamic SRAM-residency record of one simulator run
    ([Sim.run ~mem:true]).

    One record per operator captures the timestamps bounding its
    buffers' residency — preload reserve (issue gate), delivery, first
    use (execute start), last tile-compute use and release (execute
    end) — plus the byte sizes the schedule fixed.  The simulator builds
    it after its event loop from the per-operator phase times, so it is
    never read back into any timing computation.  Per-core occupancy
    timelines, high-water marks and wasted-residency integrals are all
    derived on demand.

    Core layout mirrors the device model: preload buffers land on every
    core, execute footprints occupy cores [0 .. cores_used-1] — so core
    0's occupancy is the pointwise per-core maximum. *)

type op_mem = {
  m_reserve : float;  (** preload issue gate. *)
  m_deliver : float;  (** preload delivery completes. *)
  m_first_use : float;  (** execute start. *)
  m_release : float;  (** execute end (after exchange). *)
  m_tail_start : float;  (** compute end: last tile-compute use. *)
  m_preload_bytes : float;  (** per-core, on every core. *)
  m_exec_bytes : float;  (** per-core, on the cores used. *)
  m_exec_cores : int;
}

type t

val make : cores:int -> op_mem array -> t
(** The record of a [cores]-core chip, one [op_mem] per operator id. *)

val cores : t -> int
val num_ops : t -> int
val op_mem : t -> int -> op_mem

type change =
  | Reserve  (** preload bytes reserved at the issue gate. *)
  | Convert  (** preload buffer consumed as the execute starts. *)
  | Hold  (** execute footprint lands on the cores used. *)
  | Release  (** execute footprint freed at execute end. *)

type sample = {
  s_t : float;
  s_op : int;
  s_change : change;
  s_delta : float;  (** per-core byte delta on each affected core. *)
  s_cores : int;  (** cores [0 .. s_cores-1] are affected. *)
}

val samples : t -> sample array
(** All occupancy change points, chronologically sorted; ties keep
    per-op emission order, so derived series are deterministic. *)

val occupancy : t -> core:int -> (float * float) list
(** One core's occupancy change points [(time, per-core bytes)],
    duplicate times collapsed.  Raises [Invalid_argument] on a bad core
    index. *)

val chip_occupancy : t -> (float * float) list
(** Aggregate occupancy across all cores, in total bytes. *)

val core_high_water : t -> int -> float
val high_water : t -> float
(** Max per-core occupancy over time = core 0's high water. *)

val chip_high_water : t -> float

val pre_use_waste : t -> int -> float
(** Byte-seconds the operator's preload buffer sits delivered but
    unused (delivery to first use), summed over all cores. *)

val post_use_waste : t -> int -> float
(** Byte-seconds the execute footprint stays resident after its last
    tile-compute use (the exchange/reduction tail). *)

val total_pre_use_waste : t -> float
val total_post_use_waste : t -> float
