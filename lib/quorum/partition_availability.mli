(** Availability under correlated failures — crashes plus partitions.

    The binomial analysis in {!Assignment} assumes independent site
    failures and full connectivity. The paper's fault model (§3) also
    admits communication failures that partition the network; this module
    computes operation availability exactly under a configurable fault
    model: heterogeneous per-site up probabilities and a partition that
    occurs with some probability, seen from a client co-located with a
    given site (front-ends sit at client sites, §3.2). *)

type fault_model = {
  p_up : float array; (** per-site up probability (length = n sites) *)
  partition_probability : float;
      (** probability that the network is split into [groups] *)
  groups : int list list;
      (** the partition, when it happens; each unlisted site is isolated *)
}

val uniform : n:int -> p:float -> fault_model
(** Independent crashes only. *)

val exact : fault_model -> client_site:int -> Assignment.t -> op:string -> float
(** Probability that the client's site is up and the set of up sites
    reachable from it contains both an initial and a final quorum for
    [op]: a sum over the 2{^n} up-sets, each with and without the
    partition. *)
