let words = 1 lsl 22

(* A full-period linear congruential map (multiplier 1 mod 4, odd
   increment), so the chase visits every slot in an order no prefetcher
   follows. *)
let ring = lazy (Array.init words (fun i -> ((i * 7917) + 13) land (words - 1)))

module Int_map = Map.Make (Int)

(* Memory latency, memory bandwidth, hashing, and allocation with the
   minor and major collections it brings: the program's operations slow
   down with all four when the host is busy, and allocation most. *)
let kernel () =
  let a = Lazy.force ring in
  let j = ref 0 and acc = ref 0 in
  for _ = 1 to 20_000 do
    j := a.(!j);
    acc := !acc + !j
  done;
  for i = 0 to (words / 4) - 1 do
    acc := !acc lxor a.(i)
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 10_000 do
    Hashtbl.replace h ((i * 7919) lxor !acc) i
  done;
  let l = List.init 25_000 (fun i -> ((i * 7919) land 0xffff, i)) in
  let m = ref Int_map.empty in
  for i = 1 to 8_000 do
    m := Int_map.add ((i * 7919) land 0xfffff) i !m
  done;
  !acc + Hashtbl.length h + List.length (List.sort compare l) + Int_map.cardinal !m

let sample () =
  ignore (Lazy.force ring);
  let t0 = Mcss_obs.Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Mcss_obs.Clock.seconds_since t0

let nominal_s = 0.03
let at_reference ~ref_s t = t *. nominal_s /. ref_s
