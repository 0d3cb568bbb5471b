(** Reconciliation: the measured dataplane against the verified model.

    The pump and {!Mcss_sim.Simulator} replay the {e same}
    deterministic publication schedule ([round(ev_t · duration)] events
    per topic, {!Mcss_sim.Schedule}), so on a healthy
    fleet the per-subscriber unique delivery counts must match the
    simulator's predictions {e exactly}, and per-VM handoffs must match
    [vm_ingress]. A nonzero tolerance only buys slack for runs with
    injected faults or live re-homes in flight — a steady-state
    deviation is a bug in one of the substrates, which is the point of
    measuring it. *)

type vm_row = {
  plan_vm : int;
  broker : int;  (** The broker serving this plan VM ({!Cluster.assignment}). *)
  measured : int;  (** Handoffs in the run's ledger window. *)
  predicted : int;  (** Simulator [vm_ingress]. *)
  deviation : float;  (** [|measured - predicted| / max 1 predicted]. *)
}

type t = {
  duration : float;
  tolerance : float;
  subscribers : int;
  subscriber_mismatches : (int * int * int) list;
      (** (subscriber, measured unique, predicted) where they differ. *)
  vm_rows : vm_row list;
  max_deviation : float;  (** Worst relative deviation, either axis. *)
  measured : Mcss_report.Delivery.totals;  (** Summed ledger window. *)
  predicted : Mcss_report.Delivery.totals;  (** Simulator totals. *)
  pass : bool;  (** [max_deviation <= tolerance]. *)
}

val run :
  Mcss_core.Problem.t ->
  Mcss_core.Allocation.t ->
  duration:float ->
  tolerance:float ->
  measured_unique:int array ->
  ledgers:Ledger.t list ->
  assignment:(int * int) list ->
  t
(** Predict with deterministic arrivals over [duration] horizons and
    compare. [ledgers] are the run's per-broker windows
    ({!Ledger.diff}); [assignment] maps plan VMs to broker ids so a
    recovered fleet (renumbered plan) still lines up. Brokers carrying
    no plan VM are ignored; a plan VM whose broker reported no ledger
    (killed mid-run) counts its prediction as fully missed. *)

val pp : Format.formatter -> t -> unit
