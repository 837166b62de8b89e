type grid = { lo : float; hi : float; points : int }

let grid_step g =
  assert (g.points > 1);
  (g.hi -. g.lo) /. float_of_int (g.points - 1)

let grid_position g i = g.lo +. (float_of_int i *. grid_step g)

let sqrt_2pi = sqrt (2.0 *. Float.pi)

(* In-place heapsort of [a.(off) .. a.(off + len - 1)]: a plain loop
   over an unboxed float array, where [Array.sort] would box every
   element it compares. *)
let rec sift (a : float array) ~off root last =
  let child = (2 * root) + 1 in
  if child <= last then begin
    let child =
      if child < last && a.(off + child) < a.(off + child + 1) then child + 1
      else child
    in
    let r = a.(off + root) and c = a.(off + child) in
    if r < c then begin
      a.(off + root) <- c;
      a.(off + child) <- r;
      sift a ~off child last
    end
  end

let sort_slice (a : float array) ~off ~len =
  for i = (len / 2) - 1 downto 0 do
    sift a ~off i (len - 1)
  done;
  for last = len - 1 downto 1 do
    let top = a.(off) in
    a.(off) <- a.(off + last);
    a.(off + last) <- top;
    sift a ~off 0 (last - 1)
  done

type work = {
  grid : grid;
  step : float;
  counts : int array;  (** bin counts; all zero between calls *)
  half : float array;
      (** kernel by offset: [half.(m)] weighs a bin [m] grid steps away *)
  mutable first : int;
  mutable last : int;
}

let work g =
  {
    grid = g;
    step = grid_step g;
    counts = Array.make g.points 0;
    half = Array.make g.points 0.0;
    first = 0;
    last = -1;
  }

let support_lo w = w.first
let support_hi w = w.last

(* [Stats.percentile] of a sorted slice of at least two samples. *)
let[@inline] sorted_percentile xs ~off ~len p =
  let rank = p /. 100.0 *. float_of_int (len - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = Int.min (lo + 1) (len - 1) in
  let frac = rank -. float_of_int lo in
  xs.(off + lo) +. (frac *. (xs.(off + hi) -. xs.(off + lo)))

(* Silverman's rule on [xs.(off) .. xs.(off + len - 1)], written out so
   that no float is boxed: the mean and variance sum left to right as
   [Stats.std] does, then the slice is sorted in place once for both
   [Stats.percentile]s. *)
let[@inline] silverman_slice xs ~off ~len =
  if len = 1 then 0.0
  else begin
    let nf = float_of_int len in
    let sum = ref 0.0 in
    for i = off to off + len - 1 do
      sum := !sum +. xs.(i)
    done;
    let mean = !sum /. nf in
    let acc = ref 0.0 in
    for i = off to off + len - 1 do
      let d = xs.(i) -. mean in
      acc := !acc +. (d *. d)
    done;
    let sd = sqrt (!acc /. float_of_int (len - 1)) in
    sort_slice xs ~off ~len;
    let iqr =
      sorted_percentile xs ~off ~len 75.0 -. sorted_percentile xs ~off ~len 25.0
    in
    let spread =
      if iqr > 0.0 then begin
        let q = iqr /. 1.34 in
        if sd <= q then sd else q
      end
      else sd (* discrete-ish data: fall back to sd alone *)
    in
    0.9 *. spread *. (nf ** -0.2)
  end

let silverman_bandwidth samples =
  let n = Array.length samples in
  assert (n > 0);
  silverman_slice (Array.copy samples) ~off:0 ~len:n

let density_into w ?bandwidth xs ~off ~len dst =
  let points = w.grid.points and lo = w.grid.lo and step = w.step in
  assert (len > 0 && off >= 0 && off + len <= Array.length xs);
  assert (Array.length dst = points);
  let raw =
    match bandwidth with
    | Some b -> b
    | None -> silverman_slice xs ~off ~len
  in
  let h = if raw >= step then raw else step in
  (* Bin the samples onto the grid (nearest grid position, clamped).
     Round half-up via floor(q + 0.5): Float.round rounds halves away
     from zero, so a sample below [lo] landing on a -0.5 boundary would
     truncate differently from one above it — floor keeps the
     nearest-index rule uniform over the whole (pre-clamp) axis. *)
  let counts = w.counts in
  let first = ref points and last = ref (-1) in
  for s = off to off + len - 1 do
    let q = (xs.(s) -. lo) /. step in
    let i = int_of_float (Float.floor (q +. 0.5)) in
    let i = if i < 0 then 0 else if i >= points then points - 1 else i in
    counts.(i) <- counts.(i) + 1;
    if i < !first then first := i;
    if i > !last then last := i
  done;
  (* The kernel over the window where it is non-negligible.  Offsets
     [m] and [-m] give bit-equal values, so only one half is stored;
     nothing past [points - 1] steps is ever read, so a huge bandwidth
     (whose window would not fit in an int) is capped there too. *)
  let hw = int_of_float (Float.ceil (4.0 *. h /. step)) in
  let hw = if hw < 0 || hw > points - 1 then points - 1 else hw in
  let norm = 1.0 /. (h *. sqrt_2pi) in
  let half = w.half in
  for m = 0 to hw do
    let d = float_of_int m *. step /. h in
    half.(m) <- norm *. exp (-0.5 *. d *. d)
  done;
  (* Each occupied bin adds its weighted kernel, bins in increasing
     order, so every grid cell sums its terms in the same order as a
     full-grid convolution.  The unchecked accesses are in bounds:
     [dst] and [half] have [points] cells, [j] is clamped to the grid
     and the offsets are at most [hw <= points - 1]. *)
  let n = float_of_int len in
  for i = !first to !last do
    let c = counts.(i) in
    if c > 0 then begin
      counts.(i) <- 0;
      let wt = float_of_int c /. n in
      for j = Int.max 0 (i - hw) to i - 1 do
        Array.unsafe_set dst j
          (Array.unsafe_get dst j +. (wt *. Array.unsafe_get half (i - j)))
      done;
      for j = i to Int.min (points - 1) (i + hw) do
        Array.unsafe_set dst j
          (Array.unsafe_get dst j +. (wt *. Array.unsafe_get half (j - i)))
      done
    end
  done;
  w.first <- Int.max 0 (!first - hw);
  w.last <- Int.min (points - 1) (!last + hw)

let estimate g ?bandwidth samples =
  assert (Array.length samples > 0);
  assert (g.points > 1);
  let w = work g in
  let xs = Array.copy samples in
  let density = Array.make g.points 0.0 in
  density_into w ?bandwidth xs ~off:0 ~len:(Array.length xs) density;
  density
