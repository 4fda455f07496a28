let sorted_copy samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let median samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Pct.median: no samples";
  let a = sorted_copy samples in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rank ~n q = max 1 (int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)))

let percentile samples q =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Pct.percentile: no samples";
  (sorted_copy samples).(min n (rank ~n q) - 1)

let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

type tail = { q : float; value : float; n : int; beyond : int }

let min_beyond = 10

let tail samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Pct.tail: no samples";
  let a = sorted_copy samples in
  let at q =
    let r = min n (rank ~n q) in
    { q; value = a.(r - 1); n; beyond = n - r }
  in
  match List.find_opt (fun q -> (at q).beyond >= min_beyond) ladder with
  | Some q -> at q
  | None -> at 50.0

module Hist = struct
  let per_octave = 16.0
  let buckets = 1024

  type t = { counts : int array; mutable count : int; mutable sum : int }

  let create () = { counts = Array.make buckets 0; count = 0; sum = 0 }

  let index v =
    if v <= 1 then 0
    else min (buckets - 1) (1 + int_of_float (Float.log2 (float_of_int v) *. per_octave))

  let add h v =
    let i = index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum + v

  let count h = h.count
  let sum h = h.sum

  let centre i =
    if i = 0 then 1.0 else Float.pow 2.0 ((float_of_int (i - 1) +. 0.5) /. per_octave)

  let quantile h q =
    if h.count = 0 then 0.0
    else
      let r = rank ~n:h.count q in
      let rec walk i seen =
        let seen = seen + h.counts.(i) in
        if seen >= r || i = buckets - 1 then centre i else walk (i + 1) seen
      in
      walk 0 0
end
