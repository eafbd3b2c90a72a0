(** JSON string escaping shared by every exporter that emits JSON by hand
    (the Chrome-trace writers, the metrics JSON exporter).

    [Elk_sim.Trace] historically carried its own partial escaper that
    missed control characters; this module is the single, complete
    implementation. *)

val escape : string -> string
(** Escape a string for inclusion inside a JSON string literal: quotes,
    backslashes, and every control character below [0x20] (named escapes
    for [\n \r \t \b \f], [\u00XX] for the rest).  Does not add the
    surrounding quotes. *)

val quote : string -> string
(** [quote s] is [escape s] wrapped in double quotes — a complete JSON
    string literal. *)

val number : float -> string
(** Render a float as a JSON number: integral values without a fraction,
    others with round-trip precision.  Non-finite values (which JSON
    cannot represent) render as [null]. *)

val number6 : float -> string
(** {!number} of the value rounded to 6 significant digits ([%.6g]):
    the snapshots' numbers, stable under float noise below that. *)

(** {1 Building documents}

    Rendered JSON text in, rendered JSON text out: the exporters build
    their documents from these three. *)

val obj : string list -> string
(** [obj fields] is [{f1,f2,...}]; each field comes from {!field}. *)

val arr : string list -> string
(** [arr items] is [[i1,i2,...]]. *)

val field : string -> string -> string
(** [field k v] is the member [k:v]: [k] is quoted, [v] is already
    rendered JSON. *)

(** {1 Parsing}

    A minimal JSON document model and recursive-descent parser, enough
    for the snapshot formats this repo emits itself ([elk critpath
    --json-out], metrics JSON, [BENCH_*.json]) to be read back —
    [elk trace diff] is the main consumer.  Numbers are floats;
    duplicate object keys keep the first occurrence on lookup. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

val parse : string -> (value, string) result
(** Parse one complete JSON document; the error carries a byte offset.
    [null] in a numeric position reads back as [nan] via {!to_float},
    matching how {!number} renders non-finite floats. *)

val member : string -> value -> value option
(** Object field lookup; [None] on non-objects and missing keys. *)

val to_float : value -> float option
(** [Num f] as [Some f]; [Null] as [Some nan] (see {!number}). *)

val to_str : value -> string option
val to_list : value -> value list
(** Array elements; [[]] on non-arrays. *)
