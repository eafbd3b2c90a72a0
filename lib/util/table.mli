(** Plain-text table rendering for the benchmark harness and the CLI's
    reports, and the one sparkline the views draw.

    Every experiment in [bench/main.ml] prints its rows through this module
    so that the regenerated tables and figure series share one layout. *)

type t
(** A table under construction. *)

val create : title:string -> columns:string list -> t
(** [create ~title ~columns] starts a table with a caption line and a
    header row. *)

val add_row : t -> string list -> unit
(** Append a row.  Raises [Invalid_argument] if the cell count does not
    match the header. *)

val add_rowf : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [add_rowf t fmt ...] formats a single string with [fmt] and splits it
    on ['|'] characters into cells, then behaves as {!add_row}. *)

val render : t -> string
(** Render with aligned columns, a separator under the header and the
    title on top. *)

val print : t -> unit
(** [print t] writes [render t] to stdout followed by a blank line. *)

val glyph : hi:float -> float -> string
(** One of nine intensity glyphs, [" "] to ["#"], for a value on the
    scale [[0, hi]]; [" "] when [hi <= 0]. *)

val sparkline : float list -> string
(** One {!glyph} per value, scaled to the largest value (at least 0). *)
