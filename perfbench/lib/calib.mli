(** Machine-speed calibration.

    The benchmark runs on shared hosts whose speed drifts by up to 2×
    over minutes, in CPU time as well as wall time. Every timed
    operation and set-up is therefore paired with one pass of a fixed
    reference kernel, run just before it, and reported at reference
    speed: its measured time scaled by how much faster or slower than
    {!nominal_s} the kernel ran. The kernel is benchmark code only, so a
    change to the program never changes it. *)

val sample : unit -> float
(** Seconds one pass of the reference kernel takes now: a dependent
    pointer chase over a 32 MiB array and a scan of half of it, 25 000
    hash-table inserts, sorting a fresh 60 000-element list and 20 000
    inserts into a fresh map. *)

val nominal_s : float
(** The kernel's time at reference speed, seconds. *)

val at_reference : ref_s:float -> float -> float
(** [at_reference ~ref_s t] scales a time [t] measured next to a kernel
    pass of [ref_s] seconds to reference speed: [t *. nominal_s /. ref_s]. *)
