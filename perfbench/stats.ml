(* Order statistics over the samples one run collects. *)

let sorted xs = List.sort Float.compare xs

(** Nearest-rank percentile [p] (0 < p <= 100) of a non-empty list. *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(** Median (mean of the middle pair for an even count); 0 when empty. *)
let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* candidate tail percentiles, highest first *)
let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(** The highest percentile of [ladder] with at least 10 samples beyond
    it among [n] samples; 50 when there are too few samples for any. *)
let tail_pct n =
  match
    List.find_opt
      (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
      ladder
  with
  | Some p -> p
  | None -> 50.0
