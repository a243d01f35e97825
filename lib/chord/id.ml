type space = { bits : int; mask : int }

let space ~bits =
  assert (bits >= 4 && bits <= 56);
  { bits; mask = (1 lsl bits) - 1 }

let bits s = s.bits
let size s = s.mask + 1

let random s rng =
  Int64.to_int (Int64.shift_right_logical (Octo_sim.Rng.bits64 rng) (64 - s.bits))

let add s a b = (a + b) land s.mask
let sub s a b = (a - b) land s.mask
let distance_cw s a b = (b - a) land s.mask

let between s x ~lo ~hi =
  if lo = hi then true (* full ring: by Chord convention (n, n] is everything *)
  else begin
    let dx = distance_cw s lo x and dhi = distance_cw s lo hi in
    dx > 0 && dx <= dhi
  end

let between_open s x ~lo ~hi =
  if lo = hi then x <> lo
  else begin
    let dx = distance_cw s lo x and dhi = distance_cw s lo hi in
    dx > 0 && dx < dhi
  end

let ideal_finger s n ~num_fingers i =
  assert (i >= 0 && i < num_fingers && num_fingers <= s.bits);
  add s n (1 lsl (s.bits - num_fingers + i))
