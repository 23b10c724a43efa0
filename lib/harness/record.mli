(** Recorded registry runs: periodic result-prefix checkpoints plus a
    manifest, resumable from any position.

    A recording directory holds:
    - [manifest] — a small text file naming the entry, the preset, the
      total point count, and the checkpoint cadence;
    - [ckpt-<n>.img] — a {!Semper_sim.Checkpoint} image (kind
      ["recording/<entry>"], one payload type per kind) of the first [n]
      point results, written after every chunk of [every] points and
      after the last point.

    {!replay} resumes from the nearest checkpoint at or below the
    requested position and recomputes the rest. Because rendering
    depends only on the complete result list, and results are collected
    in point order at any job count, a resumed run's text and JSON are
    byte-identical to the uninterrupted run's (a host-timed entry
    recomputes its tail on a different clock, so only a replay of the
    final checkpoint reproduces its bytes). Images are same-build
    artifacts: each carries a fingerprint of the entry name, its point
    list and the executable, and an image whose fingerprint differs
    from this build's is a load error asking for a re-record, never a
    silent recompute. *)

type manifest = {
  m_entry : string;
  m_preset : Entry.preset;
  m_total : int;  (** points in the full run *)
  m_every : int;  (** checkpoint cadence, in points *)
}

val read_manifest : string -> (manifest, string) result

(** [record ~dir entry preset] runs the entry to completion, writing
    the manifest and a checkpoint after every [every] (default 4)
    completed points, and returns the rendered output. Creates [dir] if
    needed. *)
val record : ?jobs:int -> ?every:int -> dir:string -> Entry.t -> Entry.preset -> Entry.output

(** [replay ~dir ~from_ ()] re-renders the recorded run, resuming from
    the nearest checkpoint at or below point [from_] (clamped to the
    run's range) and recomputing the remaining points. Returns
    [(resumed_at, output)]. *)
val replay : ?jobs:int -> dir:string -> from_:int -> unit -> (int * Entry.output, string) result
