module Workload = Mcss_workload.Workload
module Rng = Mcss_prng.Rng
module Dist = Mcss_prng.Dist

type arrivals =
  | Deterministic
  | Poisson of int
  | Diurnal of { seed : int; amplitude : float }

let phase_of_topic t =
  let h =
    Int64.to_int
      (Int64.shift_right_logical (Int64.mul (Int64.of_int (t + 1)) 0x9E3779B97F4A7C15L) 11)
  in
  float_of_int h *. 0x1p-53

let pi = 4. *. atan 1.

(* Intensity modulation with unit mean over whole horizons. *)
let modulation ~amplitude time = 1. +. (amplitude *. sin (2. *. pi *. time))

type t = {
  workload : Workload.t;
  arrivals : arrivals;
  duration : float;
  rng : Rng.t;  (* unused by [Deterministic] *)
  peak : float;  (* candidate rate over [ev_t]: [1 + amplitude], else 1 *)
  next : float array;  (* per topic: the pending event's time *)
  k : int array;  (* per topic: the pending deterministic event's index *)
  heap : int array;  (* topic ids; [heap.(0)] is the least (next, id) *)
  mutable size : int;
  mutable pops : int;
}

(* Topic [t]'s deterministic event count; they are [duration / n] apart. *)
let count s t = int_of_float (Float.round (Workload.event_rate s.workload t *. s.duration))

(* A stochastic topic's next inter-arrival gap, drawn at its candidate rate. *)
let gap s t = Dist.exponential s.rng ~mean:(1. /. (Workload.event_rate s.workload t *. s.peak))

let less s a b =
  let ta = s.next.(a) and tb = s.next.(b) in
  ta < tb || (ta = tb && a < b)

let rec sift_down s i =
  let l = (2 * i) + 1 in
  if l < s.size then begin
    let r = l + 1 in
    let c = if r < s.size && less s s.heap.(r) s.heap.(l) then r else l in
    if less s s.heap.(c) s.heap.(i) then begin
      let x = s.heap.(i) in
      s.heap.(i) <- s.heap.(c);
      s.heap.(c) <- x;
      sift_down s c
    end
  end

let create ~context w arrivals ~duration =
  let seed, amplitude =
    match arrivals with
    | Deterministic -> (0, 0.)
    | Poisson seed -> (seed, 0.)
    | Diurnal { seed; amplitude } ->
        if amplitude < 0. || amplitude >= 1. then
          invalid_arg (context ^ ": diurnal amplitude must be in [0, 1)");
        (seed, amplitude)
  in
  let num_topics = Workload.num_topics w in
  let s =
    { workload = w; arrivals; duration; rng = Rng.create seed; peak = 1. +. amplitude;
      next = Array.make num_topics 0.; k = Array.make num_topics 0;
      heap = Array.make num_topics 0; size = 0; pops = 0 }
  in
  let arm t first =
    s.next.(t) <- first;
    s.heap.(s.size) <- t;
    s.size <- s.size + 1
  in
  for t = 0 to num_topics - 1 do
    match arrivals with
    | Deterministic ->
        let n = count s t in
        if n > 0 then arm t (phase_of_topic t *. (duration /. float_of_int n))
    | Poisson _ | Diurnal _ ->
        let first = gap s t in
        if first < duration then arm t first
  done;
  for i = (s.size / 2) - 1 downto 0 do
    sift_down s i
  done;
  s

(* Re-arm topic [t] after its event at [time]; [false] when it is done. *)
let advance s t time =
  let next = time +. gap s t in
  s.next.(t) <- next;
  next < s.duration

let iter s f =
  while s.size > 0 do
    let t = s.heap.(0) in
    let time = s.next.(t) in
    s.pops <- s.pops + 1;
    let live =
      match s.arrivals with
      | Deterministic ->
          f time t;
          let k = s.k.(t) + 1 and n = count s t in
          let interval = s.duration /. float_of_int n in
          s.k.(t) <- k;
          s.next.(t) <- (phase_of_topic t *. interval) +. (float_of_int k *. interval);
          k < n
      | Poisson _ ->
          f time t;
          advance s t time
      | Diurnal { amplitude; _ } ->
          (* Thinning: a candidate drawn at the peak rate publishes with
             probability modulation / peak; a rejected one only re-arms. *)
          if Rng.unit_float s.rng < modulation ~amplitude time /. s.peak then f time t;
          advance s t time
    in
    if not live then begin
      s.size <- s.size - 1;
      s.heap.(0) <- s.heap.(s.size)
    end;
    sift_down s 0
  done

let pops s = s.pops

let to_array s =
  let events = ref [] in
  iter s (fun time topic -> events := (time, topic) :: !events);
  Array.of_list (List.rev !events)
