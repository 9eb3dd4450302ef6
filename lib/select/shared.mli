(** Shared pattern selection across several kernels.

    A real application runs more than one kernel on the tile — an FFT, a
    filter, a correlator — and they all draw from the {e same} 32-entry
    configuration table (paper §1).  This module extends Fig. 7 to that
    setting: one pattern set serving a whole kernel suite.

    It is {!Select.run} — Fig. 7's loop — over the union of the kernels'
    pattern pools with one score: Eq. 8's size bonus once, plus
    {!Select.balance} for every kernel that realizes the candidate (each
    kernel keeps its own {!Select.coverage}, so a pattern that only helps
    kernels that are already well covered scores low).  The color-number
    condition runs against the union of the kernels' color sets.  Selection
    never looks at schedule lengths — like the paper's algorithm it is
    purely structural — so it stays cheap even for many kernels.  With one
    kernel it selects exactly what {!Select.select} does. *)

type kernel = {
  label : string;
  graph : Mps_dfg.Dfg.t;
  classify : Mps_antichain.Classify.t;
}

val kernel :
  ?span_limit:int ->
  ?budget:int ->
  ?capacity:int ->
  label:string ->
  Mps_dfg.Dfg.t ->
  kernel
(** Convenience constructor; [capacity] defaults to 5.
    @raise Invalid_argument if the capacities of kernels later mixed in
    [select] disagree (checked there). *)

type outcome = {
  patterns : Mps_pattern.Pattern.t list;
  per_kernel_cycles : (string * int) list;
      (** Multi-pattern schedule length of each kernel under the shared
          set, in input order. *)
  total_cycles : int;
}

val select :
  ?params:Select.params -> pdef:int -> kernel list -> outcome
(** @raise Invalid_argument if the list is empty, [pdef < 1], or the
    kernels' capacities differ. *)
