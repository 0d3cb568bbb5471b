(** Order statistics over samples. *)

val quantile : float -> float list -> float
(** [quantile q xs] for [q] in [0, 1], interpolating linearly between
    the closest ranks; [nan] on an empty list. *)

val median : float list -> float
