(* The whole generator is one 64-bit word, held unboxed in an 8-byte
   buffer: a draw reads and writes it in place, where a mutable [int64]
   field would box a fresh state at every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

(* SplitMix64 finaliser (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix state

let split t =
  let seed = int64 t in
  let gamma = int64 t in
  (* Any odd gamma works; fold it into the state to decorrelate streams. *)
  of_state (Int64.logxor seed (Int64.logor gamma 1L))

let[@inline] float t bound =
  assert (bound > 0.);
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992. *. bound

let int t bound =
  assert (bound > 0);
  (* Rejection sampling: [x mod bound] alone over-weights small residues
     whenever bound does not divide 2^62. Draws past the largest exact
     multiple of [bound] are discarded (under one expected retry). The draw
     is 62 bits, so x ranges over [0, max_int] and the range size 2^62 is
     not itself representable; the acceptance threshold is kept in
     subtracted form to avoid overflow. *)
  let r = ((max_int mod bound) + 1) mod bound in
  (* r = 2^62 mod bound; accept x < 2^62 - r, i.e. x <= max_int - r *)
  let cutoff = max_int - r in
  let rec draw () =
    let x = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    if x <= cutoff then x mod bound else draw ()
  in
  draw ()

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let uniform t lo hi =
  if hi <= lo then lo else lo +. float t (hi -. lo)

let gaussian t ~mu ~sigma =
  (* [max 1e-300 u], without the polymorphic comparison's boxing. *)
  let u = float t 1.0 in
  let u1 = if 1e-300 >= u then 1e-300 else u in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let shuffle t xs =
  for i = Array.length xs - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let sample_without_replacement t k xs =
  let xs = Array.copy xs in
  shuffle t xs;
  let k = min k (Array.length xs) in
  Array.to_list (Array.sub xs 0 k)

let pick t xs =
  assert (Array.length xs > 0);
  xs.(int t (Array.length xs))
