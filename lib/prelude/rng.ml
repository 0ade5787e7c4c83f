(* [drawn] counts the [Random.State.bits] calls made through [int],
   [int_incl] and [pick], so a stream can be fast-forwarded to where
   another one stood ({!skip}) without serialising the generator *)
type t = { state : Random.State.t; path : string; mutable drawn : int }

(* A small integer mixer (xorshift-multiply, 63-bit-safe constants)
   decorrelates child seeds that come from sequential keys. *)
let mix64 z =
  let z = z lxor (z lsr 33) in
  let z = z * 0x2545F4914F6CDD1D in
  let z = z lxor (z lsr 29) in
  let z = z * 0x1B873593 in
  z lxor (z lsr 32)

let create ~seed =
  { state = Random.State.make [| mix64 seed; seed |]; path = string_of_int seed; drawn = 0 }

let split t ~key =
  (* Derive the child from a hash of (a fresh draw-free fingerprint of the
     parent path, key) so that splitting is independent of how much the
     parent stream has been consumed. *)
  let fingerprint = Hashtbl.hash t.path in
  let child_seed = mix64 ((fingerprint * 0x1000003) lxor key) in
  {
    state = Random.State.make [| child_seed; key; fingerprint |];
    path = t.path ^ "/" ^ string_of_int key;
    drawn = 0;
  }

let bits t =
  t.drawn <- t.drawn + 1;
  Random.State.bits t.state

(* the stdlib's own [Random.State.int] loop over counted [bits] draws, so
   every stream is the one [Random.State.int] would draw *)
let rec intaux t n =
  let r = bits t in
  let v = r mod n in
  if r - v > 0x3FFFFFFF - n + 1 then intaux t n else v

let int t bound =
  if bound > 0x3FFFFFFF || bound <= 0 then invalid_arg "Random.int" else intaux t bound

let int_incl t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_incl: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound = Random.State.float t.state bound
let bool t = Random.State.bool t.state

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: non-positive mean";
  let u = 1.0 -. Random.State.float t.state 1.0 in
  -.mean *. log u

let normal t ~mean ~sigma =
  if sigma < 0.0 then invalid_arg "Rng.normal: negative sigma";
  let u1 = 1.0 -. Random.State.float t.state 1.0 in
  let u2 = Random.State.float t.state 1.0 in
  mean +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let pareto t ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Rng.pareto: non-positive parameter";
  let u = 1.0 -. Random.State.float t.state 1.0 in
  scale /. (u ** (1.0 /. shape))

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let bits_drawn t = t.drawn

let skip t n =
  if n < 0 then invalid_arg "Rng.skip: negative count";
  for _ = 1 to n do
    ignore (bits t)
  done

let seed_path t = t.path
let state t = t.state
