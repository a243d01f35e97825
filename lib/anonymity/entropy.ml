let log2 x = Float.log2 x

let normalize weights =
  let total = List.fold_left (fun acc w -> acc +. Float.max 0.0 w) 0.0 weights in
  if total <= 0.0 then [] else List.map (fun w -> Float.max 0.0 w /. total) weights

let shannon weights =
  List.fold_left
    (fun acc p -> if p > 0.0 then acc -. (p *. log2 p) else acc)
    0.0 (normalize weights)

let max_entropy n = if n <= 1 then 0.0 else log2 (float_of_int n)
