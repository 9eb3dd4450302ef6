(** First-order energy model for a mapped application.

    The Montium's pitch is energy efficiency (paper §1, [2]); this model
    makes the cost of a mapping visible so the ablations can ask questions
    like "does a smaller pattern table pay for longer schedules?".  Costs
    are in arbitrary energy units per event; the defaults reflect the usual
    CGRA ordering: memory access ≳ multiplier op > adder op ≈ bus hop >
    idle, with reconfiguration two orders above an op (loading a new
    one-cycle configuration word into the sequencer).  Absolute numbers are
    a modeling assumption, documented here, not a paper artifact. *)

type costs = {
  op_add : float;  (** Adder-class operation ('a'/'b' colors). *)
  op_mul : float;  (** Multiplier-class operation. *)
  op_other : float;
  bus_transfer : float;
  memory_access : float;  (** One read or write, spills and inputs alike. *)
  register_write : float;
  reconfiguration : float;
  idle_alu_cycle : float;
}

type breakdown = {
  operations : float;
  transfers : float;
  memory : float;
  reconfig : float;
  idle : float;
  total : float;
}

val estimate :
  ?costs:costs ->
  ?tile:Tile.t ->
  Mps_frontend.Program.t ->
  Mps_scheduler.Schedule.t ->
  Allocation.t ->
  breakdown

val pp : Format.formatter -> breakdown -> unit
