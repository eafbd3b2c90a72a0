(** Tensor-operator specifications over an explicit iteration space.

    Every operator Elk schedules is described the same way a polyhedral or
    einsum-style compiler would see it: an {e iteration space} (a vector of
    dimension extents) plus, for each input/output tensor, the subset of
    iteration dimensions that index it.  This is exactly the information
    partition-plan enumeration (paper §4.3, §5) needs:

    - partitioning an iteration dimension that indexes a tensor {e slices}
      that tensor across cores;
    - partitioning a dimension that does {e not} index a tensor {e shares}
      (replicates) that tensor across the cores of that dimension — the
      data that must either be broadcast at preload time or fetched from
      peer cores at execution time (paper Fig 3);
    - partitioning a dimension not indexing the {e output} means partial
      results that must be reduced across cores.

    Example: a decode-phase [MatMul] with iteration space [m, n, k] has the
    activation indexed by (m, k), the weight by (k, n) and the output by
    (m, n); slicing along [n] shares the activation, slicing along [m]
    shares the weight, slicing along [k] requires a reduction. *)

(** Where a tensor's bytes live before the operator runs.  [Weights] and
    [Kv_cache] are HBM-resident and must be preloaded; [Activation] is
    produced on-chip by an earlier operator. *)
type source = Weights | Kv_cache | Activation

type tensor = {
  t_name : string;  (** role name, e.g. ["W"] or ["lhs"]. *)
  dims : int list;  (** iteration dimensions indexing this tensor, ascending. *)
  source : source;
}

type t = {
  name : string;  (** human-readable operator name, e.g. ["attn_qkv"]. *)
  kind : string;  (** kind label used by the cost model, e.g. ["matmul"]. *)
  iter : int array;  (** extent of each iteration dimension, all >= 1. *)
  inputs : tensor list;
  output : tensor;
  flops_per_point : float;  (** FLOPs per iteration-space point. *)
  dtype : Dtype.t;
}

val validate : t -> (unit, string) result
(** Check structural invariants: positive extents, a finite non-negative
    [flops_per_point], tensor dims sorted, within range and
    duplicate-free, output dims non-empty unless the iteration space is a
    full reduction. *)

val points : t -> float
(** Product of iteration extents. *)

val flops : t -> float
(** Total floating-point operations: [points * flops_per_point]. *)

val tensor_elems : t -> tensor -> float
(** Number of elements of a tensor: product of its dims' extents (1.0 for
    a scalar with no dims). *)

val tensor_bytes : t -> tensor -> float
(** [tensor_elems] scaled by the operator's element size. *)

val hbm_bytes : t -> float
(** Bytes of HBM-resident inputs ([Weights] and [Kv_cache]) — the volume
    this operator preloads from off-chip memory. *)

val activation_in_bytes : t -> float
(** Bytes of on-chip inputs (produced by predecessors). *)

val output_bytes : t -> float
(** Bytes of the output tensor. *)

val footprint_bytes : t -> float
(** Total bytes touched: all inputs plus output. *)

val arithmetic_intensity : t -> float
(** FLOPs per HBM byte; [infinity] for operators that load nothing. *)

val is_hbm_heavy : t -> threshold:float -> bool
(** True when {!hbm_bytes} is at least [threshold] — the predicate the
    preload-order search (paper §4.4) uses to decide which operators are
    worth reordering. *)

(** {1 Constructors}

    Each constructor builds a well-formed spec for one operator family.
    All take [?dtype] defaulting to [Fp16]. *)

val matmul :
  ?dtype:Dtype.t -> ?weight_source:source -> name:string -> m:int -> n:int -> k:int -> unit -> t
(** Activation [m,k] times resident weight [k,n]. *)

val batch_matmul :
  ?dtype:Dtype.t -> ?rhs_source:source -> name:string -> batch:int -> m:int -> n:int -> k:int ->
  unit -> t
(** Batched [m,k] x [k,n]; the right-hand side defaults to [Kv_cache]
    (attention score/value matmuls in decode read the cache). *)

val softmax : ?dtype:Dtype.t -> name:string -> rows:int -> cols:int -> unit -> t
(** Row-wise softmax; no HBM-resident inputs. *)

val norm :
  ?dtype:Dtype.t -> ?kind:string -> name:string -> rows:int -> cols:int -> unit -> t
(** RMSNorm/LayerNorm: per-row normalization with a [cols]-sized resident
    scale vector ([kind] defaults to ["rmsnorm"]). *)

val rope : ?dtype:Dtype.t -> name:string -> rows:int -> cols:int -> unit -> t
(** Rotary position embedding over [rows x cols] activations with a
    [cols]-sized resident frequency table. *)

val elementwise :
  ?dtype:Dtype.t -> ?arity:int -> ?flops_per_point:float -> name:string -> kind:string ->
  shape:int list -> unit -> t
(** Pointwise operator ([add], [mul], [silu], [gelu]...) of [arity] on-chip
    inputs over [shape]. *)

val embedding :
  ?dtype:Dtype.t -> name:string -> rows:int -> vocab:int -> hidden:int -> unit -> t
(** Embedding-table gather: [rows] lookups into a resident [vocab x hidden]
    table.  Modeled with the gathered slice ([rows x hidden]) as the
    HBM-loaded volume: only touched rows transit HBM. *)

val conv_patchify :
  ?dtype:Dtype.t -> name:string -> tokens:int -> in_dim:int -> out_dim:int -> unit -> t
(** Patch-embedding convolution (DiT) expressed as a token matmul. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: name, kind, iteration space, FLOPs, HBM bytes. *)
