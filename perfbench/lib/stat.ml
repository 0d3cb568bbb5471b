(* Order statistics over samples. Linear interpolation between closest
   ranks, as [statistics.quantiles(method="inclusive")] and numpy's
   default compute them. *)

let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let h = q *. float_of_int (n - 1) in
      let lo = truncate h in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
