(** The named workload corpus behind the selector fit and gates.

    The auto-selector ({!Mps_select.Auto}, ROADMAP item 4) is only as
    honest as the corpus it is fit on, so this module fixes one by name:
    the paper's figures, a DFT/FFT size sweep, DSP/linear-algebra kernels
    (DCT, matmul, FIR/IIR, Horner), and adversarial layered-random suites
    chosen to stress single features (width, depth, density, color mix).
    [bench --fit-selector] fits the rule table and measures regret on
    these, and perfbench and the serve builtins quote the same names —
    keeping them in lockstep is the point of naming the corpus in one
    place.

    Every entry is deterministic: generators are seeded, so a name always
    denotes the same graph. *)

type entry = {
  name : string;  (** Unique corpus-wide; what every artifact quotes. *)
  build : unit -> Mps_dfg.Dfg.t;
      (** Fresh graph per call (entries share no state). *)
  blurb : string;  (** One line for tables and docs. *)
}

val corpus : ?full:bool -> ?huge:bool -> unit -> entry list
(** The corpus in fixed, documented order.  The base list (default) is
    sized for quick runs; [full] appends the larger instances the
    offline fit also sees (bigger FFT/matmul, a direct DFT, wider random
    suites); [huge] appends the layered-random huge tier, where
    classification dominates wall-clock and [--jobs] scaling is
    measured.  Names are unique across all three. *)

val find : string -> entry option
(** Lookup by name over the whole corpus, huge tier included. *)

val graphs : ?full:bool -> ?huge:bool -> unit -> (string * Mps_dfg.Dfg.t) list
(** [corpus] with every graph built — the convenient form for benches. *)
