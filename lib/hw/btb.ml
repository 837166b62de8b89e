type geometry = { entries : int; ways : int }

type t = {
  g : geometry;
  n_sets : int;
  tags : int array; (* branch address; -1 = invalid *)
  targets : int array;
  age : int array;
  mutable clock : int;
  mutable n_valid : int;
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_predicted : Tp_obs.Counter.t;
  st_mispredicted : Tp_obs.Counter.t;
  st_flushes : Tp_obs.Counter.t;
}

(* Branch addresses are instruction-granular; use 4-byte granularity for
   the index so consecutive branch slots map to consecutive sets. *)
let index_shift = 2

let geometry_sets g = g.entries / g.ways

(* The pure index hash, exposed so the certifier can fold a lifted
   branch trace through the same placement function the model uses. *)
let set_of_addr g addr = (addr lsr index_shift) land (geometry_sets g - 1)

let create ?(name = "btb") g =
  assert (Defs.is_pow2 g.entries && Defs.is_pow2 g.ways);
  let n_sets = g.entries / g.ways in
  let st = Tp_obs.Counter.make_set name in
  let st_predicted = Tp_obs.Counter.counter st "predicted" in
  let st_mispredicted = Tp_obs.Counter.counter st "mispredicted" in
  let st_flushes = Tp_obs.Counter.counter st "flushes" in
  {
    g;
    n_sets;
    tags = Array.make g.entries (-1);
    targets = Array.make g.entries 0;
    age = Array.make g.entries 0;
    clock = 0;
    n_valid = 0;
    st;
    st_predicted;
    st_mispredicted;
    st_flushes;
  }

let counters t = t.st

type result = Predicted | Mispredicted

let set_of t addr = (addr lsr index_shift) land (t.n_sets - 1)

(* A plain loop: a local recursive function would allocate its closure
   on every branch. *)
let find t addr =
  let base = set_of t addr * t.g.ways in
  let stop = base + t.g.ways in
  let i = ref base in
  while !i < stop && t.tags.(!i) <> addr do
    incr i
  done;
  if !i < stop then !i else -1

let lru_way t set =
  let base = set * t.g.ways in
  let best = ref base in
  for w = 1 to t.g.ways - 1 do
    let i = base + w in
    if t.tags.(i) = -1 then begin
      if t.tags.(!best) <> -1 || t.age.(i) < t.age.(!best) then best := i
    end
    else if t.tags.(!best) <> -1 && t.age.(i) < t.age.(!best) then best := i
  done;
  !best

let branch t ~addr ~target =
  t.clock <- t.clock + 1;
  let i = find t addr in
  if i >= 0 && t.targets.(i) = target then begin
    Tp_obs.Counter.incr t.st_predicted;
    t.age.(i) <- t.clock;
    Predicted
  end
  else begin
    Tp_obs.Counter.incr t.st_mispredicted;
    let i = if i >= 0 then i else lru_way t (set_of t addr) in
    if t.tags.(i) = -1 then t.n_valid <- t.n_valid + 1;
    t.tags.(i) <- addr;
    t.targets.(i) <- target;
    t.age.(i) <- t.clock;
    Mispredicted
  end

let flush t =
  Tp_obs.Counter.incr t.st_flushes;
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.n_valid <- 0

let valid_entries t = t.n_valid

let state_words t =
  (3 * Array.length t.tags) + 2 + Blob.counters_words t.st

let save_state t blob off =
  let off = Blob.save_ints blob off t.tags in
  let off = Blob.save_ints blob off t.targets in
  let off = Blob.save_ints blob off t.age in
  blob.{off} <- t.clock;
  blob.{off + 1} <- t.n_valid;
  Blob.save_counters blob (off + 2) t.st

let load_state t blob off =
  let off = Blob.load_ints blob off t.tags in
  let off = Blob.load_ints blob off t.targets in
  let off = Blob.load_ints blob off t.age in
  t.clock <- blob.{off};
  t.n_valid <- blob.{off + 1};
  Blob.load_counters blob (off + 2) t.st
