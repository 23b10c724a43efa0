(** The experiment registry: every table, figure, ablation and
    [BENCH_*.json] deliverable of the reproduction, one {!Entry.t}
    each. [semperos_cli bench|record|replay], the [--jobs] fan-out,
    schema validation and the registry test suite are all derived from
    this one list. *)

(** The paper's tables and figures, in the order [semperos_cli bench
    all] runs them: [table3 fig4 fig5 table4 fig6 fig7 fig8 fig9 fig10
    ablations]. *)
val paper : Entry.t list

(** {!paper}, then the deliverables [micro apps wallclock balance fleet
    batch scale engine]. *)
val all : Entry.t list

val find : string -> Entry.t option

(** [BENCH_<name>.json], the file a deliverable writes by default. *)
val path : Entry.t -> string

(** Check a parsed benchmark document against the shape of the
    deliverable it belongs to, found by its ["schema"] field or, for
    the two documents that predate that field, by
    [Filename.basename path]. Unknown schemas are an error. *)
val validate : ?path:string -> Semper_obs.Obs.Json.t -> (unit, string) result

(** [validate] applied to the parsed contents of a file. *)
val validate_file : string -> (unit, string) result
