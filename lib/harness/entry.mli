(** One experiment of the registry ({!Bench}): a table, figure,
    ablation or [BENCH_*.json] deliverable, as a run description.

    An entry is a list of {e points} (pure-data run specs) per preset, a
    [compute] from one point to its result, and a [render] from the
    points and their results to text and JSON. Every point is an
    independent simulation, so {!run} fans points out over domains and
    collects results in point order: the output is byte-identical at
    any job count. The same shape makes every entry checkpointable
    ({!Record}): rendering depends only on the complete result list, so
    a run resumed from a saved result prefix renders the same bytes. *)

type preset = Smoke | Full

val preset_to_string : preset -> string
val preset_of_string : string -> preset option

type output = {
  text : string;  (** what [semperos_cli bench NAME] prints *)
  json : Semper_obs.Obs.Json.t;  (** the same data as one JSON document *)
}

(** {2 Rendering} *)

type table = { title : string; header : string list; rows : string list list }

(** A {!Semper_util.Table.Series} as a table. *)
val series : title:string -> Semper_util.Table.Series.t -> table

(** Each table as a ["== title =="] line after a blank line, then the
    aligned table: the layout every table and figure prints in. *)
val text : table list -> string

(** The output of a paper entry: {!text}, plus a JSON document holding
    the same tables ([{"tables":[{"title","header","rows"}]}]). *)
val tables : table list -> output

(** {2 Deliverable shapes} *)

(** What the value under a required key must be. *)
type field =
  | Any
  | Keys of (string * field) list  (** an object carrying at least these keys *)
  | Rows of (string * field) list  (** a non-empty array of such objects *)

type shape = {
  schema : string;
      (** the document's ["schema"] tag; [BENCH_micro.json] and
          [BENCH_apps.json] predate the tag and go by file name *)
  keys : (string * field) list;  (** required top-level keys *)
}

(** [leaves ks] requires each of [ks], with any value. *)
val leaves : string list -> (string * field) list

(** Check a document against a shape: every required key must be
    present at every level. Extra keys are allowed: adding a column is
    not a schema break, dropping one is. *)
val check : shape -> Semper_obs.Obs.Json.t -> (unit, string) result

(** {2 Entries} *)

type ('p, 'r) spec = {
  name : string;  (** the [semperos_cli bench] name *)
  doc : string;
  points : preset -> 'p list;
  compute : 'p -> 'r;  (** one simulation, pure in the point *)
  render : 'p list -> 'r list -> output;
  host_timed : bool;
      (** reads the host clock or the process-wide
          {!Semper_sim.Engine.Totals}: its points always run serially,
          and its output differs from run to run *)
  shape : shape option;  (** [Some _] marks a deliverable, written to [BENCH_<name>.json] *)
}

type t = E : ('p, 'r) spec -> t

val name : t -> string

(** [compute] over the points on [jobs] domains (default: available
    cores; always 1 for a host-timed entry), results in point order.
    The only fan-out of the registry. *)
val map : ?jobs:int -> ('p, 'r) spec -> 'p list -> 'r list

(** Render the preset's points from {!map}'s results. *)
val run : ?jobs:int -> t -> preset -> output
