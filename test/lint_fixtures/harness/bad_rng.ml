(* D2 fixtures: wall-clock, ambient RNG and environment reads — banned
   everywhere, not just lib/ (this file deliberately sits outside lib/ to
   prove it). *)

let jitter () = Random.float 1.0
let seed_me () = Random.self_init ()
let wall () = Unix.gettimeofday ()
let cpu () = Sys.time ()
let qualified () = Stdlib.Random.bits ()
let debug_on () = Sys.getenv_opt "DEBUG" <> None
let home () = Sys.getenv "HOME"

(* simulated time is the sanctioned clock *)
let sim_now engine = Engine.now engine

let escape () =
  (* octolint: allow no-wallclock-rng *)
  Random.bits ()

(* a suppression that names no known rule is itself reported *)
let broken () = ignore 0 (* octolint: allow determinsm *)
