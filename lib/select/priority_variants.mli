(** Alternative selection priority functions.

    The paper closes with: "The proposed approach makes the further
    improvement very simple: by just modifying the priority function.  In
    our future work we will go on working on the priority function."  This
    module is that experiment, and it is exactly that small: a variant is
    one score function, and {!select} runs {!Select.run} — Fig. 7's loop,
    with its color condition, subpattern deletion and fallback — with the
    variant's score in place of Eq. 8.  A variant scores a candidate
    pattern given the per-node antichain frequencies and the coverage
    accumulated by earlier picks. *)

type context = {
  freq : int array;  (** h(p̄,·) of the candidate, indexed by node. *)
  count : int;  (** Number of antichains of the candidate. *)
  cover : int array;  (** Σ over selected patterns of h(p̄i,·). *)
  size : int;  (** |p̄|. *)
}

type variant = {
  name : string;
  doc : string;
  score : context -> float;
}

val paper : variant
(** Eq. 8 with the paper's ε = 0.5, α = 20 — the reference point;
    {!select} with it is {!Select.select}. *)

val linear_size : variant
(** Eq. 8 with α·|p̄| instead of α·|p̄|² — how much does the quadratic
    size bonus matter? *)

val raw_count : variant
(** Antichain count plus the size bonus; no per-node balancing. *)

val coverage_gap : variant
(** Scores only nodes still uncovered (cover = 0) — a set-cover reading of
    the problem. *)

val sqrt_damping : variant
(** Balancing via 1/sqrt(cover+ε) — gentler damping than Eq. 8's 1/x. *)

val all : variant list
(** The five variants above, the ablation table's columns. *)

val greedy_count : variant
(** The greedy frequency baseline: the raw antichain count alone, with
    neither the balancing denominator nor the α size bonus.  Comparing it
    against {!Select} isolates how much those two terms buy.  The
    portfolio runs it as [greedy-count]; it is not in {!all}. *)

val select :
  variant -> pdef:int -> Mps_antichain.Classify.t -> Mps_pattern.Pattern.t list
(** Fig. 7's loop with the variant's score.  Same guarantees as
    {!Select.select}: covers every color, at most [pdef] patterns.
    @raise Invalid_argument if [pdef < 1]. *)
