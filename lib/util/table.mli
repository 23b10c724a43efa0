(** ASCII table and data-series rendering for benchmark output.

    The bench harness prints the same rows and series the paper reports;
    these helpers keep that output aligned and uniform. *)

(** [render ~header rows] is an aligned ASCII table. Each row must have
    the same arity as [header]. *)
val render : header:string list -> string list list -> string

(** [print ~title ~header rows] renders to stdout with a title line. *)
val print : title:string -> header:string list -> string list list -> unit

(** A named data series for figure-style output: one x column and one
    column per series. *)
module Series : sig
  type t

  (** [create ~x_label ~labels] with one label per series. *)
  val create : x_label:string -> labels:string list -> t

  (** [add_row t ~x ys] appends a row; [ys] uses [None] for a missing
      point (rendered as "-"). *)
  val add_row : t -> x:float -> float option list -> unit

  (** The header ([x_label :: labels]) and the formatted rows, in the
      order they were added. *)
  val table : t -> string list * string list list

  val render : t -> string
end
