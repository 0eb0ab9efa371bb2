(* Growable float sample buffers and exact percentiles. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let mean t =
  let sum = ref 0.0 in
  for i = 0 to t.n - 1 do
    sum := !sum +. t.a.(i)
  done;
  !sum /. float_of_int t.n

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

(* Linearly interpolated [p]-quantile (0 <= p <= 1) of sorted [s]. *)
let quantile s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let i = truncate h in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

(* Samples strictly above the [p]-quantile: the support of a tail
   percentile (the guide's rule is at least ten). *)
let beyond s p = Array.length s - 1 - truncate (p *. float_of_int (Array.length s - 1))

let median xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  quantile s 0.5
