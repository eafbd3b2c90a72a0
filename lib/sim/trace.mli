(** Chrome-trace export of simulation results.

    Serializes an {!Sim.result} into the Chrome/Perfetto trace-event JSON
    format (catapult "X" complete events), with one track for the HBM
    preload channel and one for on-chip execution (split into the
    distribute / compute / exchange phases).  Load the file at
    [chrome://tracing] or [ui.perfetto.dev] to see exactly how a schedule
    overlapped preload and execution — the visual equivalent of the
    paper's Fig 18(a) breakdown. *)

val chrome_events : Elk_model.Graph.t -> Sim.result -> string list
(** The rendered trace-event objects alone (no enclosing document): one
    per preload with nonzero duration and one per nonzero
    distribute/compute/exchange phase — for merging with other
    producers, e.g. {!Elk_obs.Span.chrome_events}, into one timeline
    via {!Elk_obs.Chrome.write}.  The CLI's [--trace-out] writes them
    after {!chrome_meta}. *)

val flow_events : Critpath.summary -> string list
(** Perfetto flow ("s"/"f") event pairs — one arrow per causal edge of
    the critical path, connecting the slice where the binding event ends
    to the slice where the enabled event starts.  Merge with
    {!chrome_events} (the arrows bind to those slices); edges between
    two sub-events of the same preload slice are elided. *)

val chrome_meta : string list
(** thread_name metadata events labelling tracks 1 (HBM preload) and 2
    (on-chip execute). *)
