open Prism_sim

type shape =
  | Poisson of { rate : float }
  | Mmpp of {
      rate_low : float;
      rate_high : float;
      dwell_low : float;
      dwell_high : float;
      mutable high : bool;
      mutable dwell_left : float; (* virtual seconds left in current state *)
    }
  | Diurnal of {
      base_rate : float;
      peak_rate : float;
      period : float;
      mutable clock : float; (* absolute virtual time of the last arrival *)
    }

type t = { shape : shape; rng : Rng.t }

let poisson ~rate rng =
  if rate <= 0.0 then invalid_arg "Arrival.poisson: rate must be positive";
  { shape = Poisson { rate }; rng }

let mmpp ~rate_low ~rate_high ~dwell_low ~dwell_high rng =
  if rate_low <= 0.0 || rate_high <= 0.0 then
    invalid_arg "Arrival.mmpp: rates must be positive";
  if dwell_low <= 0.0 || dwell_high <= 0.0 then
    invalid_arg "Arrival.mmpp: dwell times must be positive";
  let dwell_left = Rng.exponential rng ~mean:dwell_low in
  {
    shape = Mmpp { rate_low; rate_high; dwell_low; dwell_high; high = false; dwell_left };
    rng;
  }

let diurnal ~base_rate ~peak_rate ~period rng =
  if base_rate <= 0.0 || peak_rate < base_rate then
    invalid_arg "Arrival.diurnal: need 0 < base_rate <= peak_rate";
  if period <= 0.0 then invalid_arg "Arrival.diurnal: period must be positive";
  { shape = Diurnal { base_rate; peak_rate; period; clock = 0.0 }; rng }

let two_pi = 8.0 *. atan 1.0

let next_gap t =
  match t.shape with
  | Poisson { rate } -> Rng.exponential t.rng ~mean:(1.0 /. rate)
  | Mmpp m ->
      (* Accumulate time across state flips until an arrival lands inside
         the current state's remaining dwell. *)
      let gap = ref 0.0 in
      let finished = ref false in
      while not !finished do
        let rate = if m.high then m.rate_high else m.rate_low in
        let candidate = Rng.exponential t.rng ~mean:(1.0 /. rate) in
        if candidate <= m.dwell_left then begin
          m.dwell_left <- m.dwell_left -. candidate;
          gap := !gap +. candidate;
          finished := true
        end
        else begin
          gap := !gap +. m.dwell_left;
          m.high <- not m.high;
          m.dwell_left <-
            Rng.exponential t.rng
              ~mean:(if m.high then m.dwell_high else m.dwell_low)
        end
      done;
      !gap
  | Diurnal d ->
      (* Lewis–Shedler thinning against the constant majorant [peak_rate]:
         candidate arrivals at the peak rate are accepted with probability
         rate(t)/peak, yielding a nonhomogeneous Poisson process. *)
      let gap = ref 0.0 in
      let finished = ref false in
      while not !finished do
        gap := !gap +. Rng.exponential t.rng ~mean:(1.0 /. d.peak_rate);
        let at = d.clock +. !gap in
        let phase = at /. d.period in
        let u = phase -. Float.of_int (int_of_float phase) in
        let rate =
          d.base_rate
          +. ((d.peak_rate -. d.base_rate) *. (1.0 -. cos (two_pi *. u)) /. 2.0)
        in
        if Rng.float t.rng < rate /. d.peak_rate then begin
          d.clock <- at;
          finished := true
        end
      done;
      !gap

let mean_rate t =
  match t.shape with
  | Poisson { rate } -> rate
  | Mmpp { rate_low; rate_high; dwell_low; dwell_high; _ } ->
      ((rate_low *. dwell_low) +. (rate_high *. dwell_high))
      /. (dwell_low +. dwell_high)
  | Diurnal { base_rate; peak_rate; _ } -> (base_rate +. peak_rate) /. 2.0

let name t =
  match t.shape with
  | Poisson _ -> "poisson"
  | Mmpp _ -> "mmpp"
  | Diurnal _ -> "diurnal"

let of_name name ~rate ~ops rng =
  match name with
  | "poisson" -> poisson ~rate rng
  | "mmpp" ->
      let dwell = 200.0 /. rate in
      mmpp ~rate_low:(0.25 *. rate) ~rate_high:(1.75 *. rate) ~dwell_low:dwell
        ~dwell_high:dwell rng
  | "diurnal" ->
      let period = float_of_int ops /. rate /. 2.0 in
      diurnal ~base_rate:(0.5 *. rate) ~peak_rate:(1.5 *. rate) ~period rng
  | other ->
      invalid_arg
        ("unknown arrival process " ^ other ^ " (use poisson|mmpp|diurnal)")

let schedule t ~n =
  let times = Array.make n 0.0 in
  let clock = ref 0.0 in
  for i = 0 to n - 1 do
    clock := !clock +. next_gap t;
    times.(i) <- !clock
  done;
  times
