(** The paper's evaluation (§5) as registry entries: Table 3, Figures
    4-10, Table 4 and the ablations (DESIGN.md). Each prints the rows
    or series the paper reports; EXPERIMENTS.md records paper against
    measured. Their JSON is the printed tables ({!Entry.tables}).

    The [Full] preset is the paper's sweep; [Smoke] runs the same code
    on a few tiny points, in well under a second. *)

(** [table3 fig4 fig5 table4 fig6 fig7 fig8 fig9 fig10 ablations], in
    this order. *)
val all : Entry.t list
