type t = {
  coords : float array array; (* per node, [dims] *)
  access : float array; (* per node one-way access delay, seconds *)
  n : int;
  mutable mean : float;
  mutable median : float;
}

let n t = t.n

let core_distance t i j =
  let ci = t.coords.(i) and cj = t.coords.(j) in
  let acc = ref 0.0 in
  for d = 0 to Array.length ci - 1 do
    let dx = ci.(d) -. cj.(d) in
    acc := !acc +. (dx *. dx)
  done;
  sqrt !acc

let raw_rtt t i j = if i = j then 0.0 else core_distance t i j +. t.access.(i) +. t.access.(j)

let calibrate rng t ~target_mean =
  (* Sample pairs, compute the empirical mean, and rescale every component so
     the mean matches the target. *)
  let samples = min 20_000 (t.n * (t.n - 1) / 2) in
  let total = ref 0.0 in
  let vals = Array.make (max samples 1) 0.0 in
  let count = ref 0 in
  while !count < samples do
    let i = Rng.int rng t.n and j = Rng.int rng t.n in
    if i <> j then begin
      let v = raw_rtt t i j in
      vals.(!count) <- v;
      total := !total +. v;
      incr count
    end
  done;
  let mean = if samples = 0 then 1.0 else !total /. float_of_int samples in
  let scale = target_mean /. mean in
  Array.iter (fun c -> Array.iteri (fun d x -> c.(d) <- x *. scale) c) t.coords;
  Array.iteri (fun i a -> t.access.(i) <- a *. scale) t.access;
  Array.sort Float.compare vals;
  t.mean <- target_mean;
  t.median <- (if samples = 0 then 0.0 else vals.(samples / 2) *. scale)

let dims = 5
let king_mean_rtt = 0.182

let create rng ~n =
  assert (n > 0);
  (* Core coordinates: clustered gaussian blobs to mimic continents. *)
  let n_clusters = max 3 (min 8 (n / 20 + 3)) in
  let centers =
    Array.init n_clusters (fun _ -> Array.init dims (fun _ -> Rng.gaussian rng ~mu:0.0 ~sigma:0.040))
  in
  let coords =
    Array.init n (fun _ ->
        let c = centers.(Rng.int rng n_clusters) in
        Array.init dims (fun d -> c.(d) +. Rng.gaussian rng ~mu:0.0 ~sigma:0.012))
  in
  (* Heavy-tailed access delays: log-normal, median ~15 ms one-way. *)
  let access = Array.init n (fun _ -> Rng.lognormal rng ~mu:(log 0.015) ~sigma:0.9) in
  let t = { coords; access; n; mean = 0.0; median = 0.0 } in
  calibrate rng t ~target_mean:king_mean_rtt;
  t

let rtt t i j = raw_rtt t i j
let one_way t i j = 0.5 *. raw_rtt t i j

let jitter_window lat = Float.min 0.010 (0.1 *. lat)
let jitter_bound t i j = jitter_window (one_way t i j)

(* One [raw_rtt] per message: the delay and its jitter window share it. *)
let sample_one_way t rng i j =
  let lat = one_way t i j in
  lat +. Rng.float rng (jitter_window lat)
let mean_rtt t = t.mean
let median_rtt t = t.median
