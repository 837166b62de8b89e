(* The SplitMix64 state lives unboxed in 8 bytes: a mutable [int64]
   record field would box a fresh state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (mix64 (bits64 t))

(* Trial-indexed stream splitting for the parallel runner: the stream
   for trial [i] depends only on (seed, i), never on which worker runs
   the trial or in what order, so parallel schedules reproduce the
   sequential streams exactly. *)
let of_trial ~seed ~trial =
  of_state
    (mix64
       (Int64.add
          (mix64 (Int64.of_int seed))
          (Int64.mul (Int64.of_int (trial + 1)) golden_gamma)))

let copy = Bytes.copy

let int t bound =
  assert (bound > 0);
  (* Rejection-free for our purposes: modulo bias is negligible for the
     bounds used in the simulator (all far below 2^62). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  (* Box–Muller; discard the second deviate for simplicity. *)
  let u1 = ref (float t 1.0) in
  while not (!u1 > 0.0) do
    u1 := float t 1.0
  done;
  let u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log !u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
