type mode = Open | Partitioned | Mba of float

type t = {
  cores : int;
  rate : float array; (* per-core issue rate, transactions/cycle (EWMA) *)
  slow_rate : float array; (* long-horizon average, the MBA meter *)
  last : int array; (* per-core cycle of the previous transaction *)
  run_start : int array; (* start of the core's current activity run *)
  service : float; (* bus service rate, transactions/cycle *)
  mutable mode : mode;
  (* Observability only: never read by the model itself. *)
  st : Tp_obs.Counter.set;
  st_transactions : Tp_obs.Counter.t;
  st_stalled : Tp_obs.Counter.t;
  st_stall_cycles : Tp_obs.Counter.t;
}

let ewma_alpha = 0.2
let slow_alpha = 0.01
let delay_scale = 50.0

(* A core's traffic only contends with transactions that are actually
   in flight around the same time: another core whose last issue is
   older than this window is quiescent — a bus queue drains within a
   few service periods.  (Per-core clocks are comparable as global
   time because the execution drivers advance every core each round;
   manual cross-core drivers keep them aligned explicitly.) *)
let active_window = 3_000

(* A gap longer than this ends an activity run (the core went quiet —
   preempted, sleeping, compute-bound). *)
let run_gap = 50_000

let create ?(name = "bus") ~cores ~window ~slots_per_window () =
  assert (cores > 0 && window > 0 && slots_per_window > 0);
  let st = Tp_obs.Counter.make_set name in
  let st_transactions = Tp_obs.Counter.counter st "transactions" in
  let st_stalled = Tp_obs.Counter.counter st "stalled" in
  let st_stall_cycles = Tp_obs.Counter.counter st "stall_cycles" in
  {
    cores;
    rate = Array.make cores 0.0;
    slow_rate = Array.make cores 0.0;
    last = Array.make cores (-1);
    run_start = Array.make cores (-1);
    service = float_of_int slots_per_window /. float_of_int window;
    mode = Open;
    st;
    st_transactions;
    st_stalled;
    st_stall_cycles;
  }

let counters t = t.st

let set_mode t m = t.mode <- m
let set_partitioned t b = t.mode <- (if b then Partitioned else Open)

(* Queueing delay from the summed offered rates of the cores whose
   current activity run covers this instant: a run is
   [run_start, last], padded by the queue-drain window on both sides.
   A top-level loop rather than a local closure, and an int result
   rather than a float one, so a bus transaction allocates nothing. *)
let contention_delay t ~core ~now =
  let live = ref 0.0 in
  for j = 0 to t.cores - 1 do
    if
      j = core
      || (t.last.(j) >= 0
         && now >= t.run_start.(j) - active_window
         && now <= t.last.(j) + active_window)
    then live := !live +. t.rate.(j)
  done;
  let overload = !live -. t.service in
  if overload > 0.0 then int_of_float (overload /. t.service *. delay_scale)
  else 0

(* Cores have independent clocks, so each core's issue rate is derived
   from its own inter-transaction gaps; the queueing delay of a
   transaction grows with the total offered rate beyond the bus's
   service rate (a linear M/D/1 flavour).  Under the hypothetical
   bandwidth partition each core is measured against its own share
   only, so other cores' traffic cannot influence its delay. *)
let record t ~core ~now =
  assert (core >= 0 && core < t.cores);
  let dt =
    if t.last.(core) < 0 then max_int else Stdlib.max 1 (now - t.last.(core))
  in
  if dt > run_gap then t.run_start.(core) <- now;
  t.last.(core) <- now;
  let inst = if dt = max_int then 0.0 else 1.0 /. float_of_int dt in
  (* The fast estimator tracks the within-burst issue rate: a gap
     longer than the queueing horizon means the core was descheduled
     or computing, not that the bus saw a slower stream, so it leaves
     the estimate alone.  The MBA meter, by contrast, is charged for
     gaps — it measures sustained bandwidth. *)
  if dt <= active_window then
    t.rate.(core) <- ((1.0 -. ewma_alpha) *. t.rate.(core)) +. (ewma_alpha *. inst);
  t.slow_rate.(core) <-
    ((1.0 -. slow_alpha) *. t.slow_rate.(core)) +. (slow_alpha *. inst);
  let delay =
    match t.mode with
    | Partitioned ->
        let offered = t.rate.(core) *. float_of_int t.cores in
        let overload = offered -. t.service in
        if overload > 0.0 then int_of_float (overload /. t.service *. delay_scale)
        else 0
    | Open -> contention_delay t ~core ~now
    | Mba limit ->
        (* Approximate enforcement: the MBA meter is a slow average, so a
           core pays its throttle penalty only when its {e sustained}
           rate exceeds the cap — instantaneous bursts pass straight
           through, and the shared queue is still shared, so the
           contention term computed from everyone's instantaneous rate
           remains.  That residue is why the paper's footnote 5 deems
           MBA insufficient against covert channels. *)
        let cap = limit *. t.service in
        let throttle =
          let over = t.slow_rate.(core) -. cap in
          if over > 0.0 then
            int_of_float (over /. t.service *. delay_scale *. 2.0)
          else 0
        in
        throttle + contention_delay t ~core ~now
  in
  Tp_obs.Counter.incr t.st_transactions;
  if delay > 0 then begin
    Tp_obs.Counter.incr t.st_stalled;
    Tp_obs.Counter.add t.st_stall_cycles delay
  end;
  delay

let window_traffic t ~core =
  (* Scaled to a per-mille utilisation figure for diagnostics. *)
  int_of_float (t.rate.(core) /. t.service *. 1000.0)

let drain t =
  Array.fill t.rate 0 t.cores 0.0;
  Array.fill t.slow_rate 0 t.cores 0.0;
  Array.fill t.last 0 t.cores (-1);
  Array.fill t.run_start 0 t.cores (-1)

let state_words t =
  (2 * t.cores * Blob.float_words) (* rate, slow_rate *)
  + (2 * t.cores) (* last, run_start *)
  + 1 + Blob.float_words (* mode tag + Mba limit *)
  + Blob.counters_words t.st

let save_floats blob off a =
  Array.fold_left (fun off f -> Blob.save_float blob off f) off a

let load_floats blob off (a : float array) =
  let o = ref off in
  for i = 0 to Array.length a - 1 do
    a.(i) <- Blob.load_float blob !o;
    o := !o + Blob.float_words
  done;
  !o

let save_state t blob off =
  let off = save_floats blob off t.rate in
  let off = save_floats blob off t.slow_rate in
  let off = Blob.save_ints blob off t.last in
  let off = Blob.save_ints blob off t.run_start in
  let tag, limit =
    match t.mode with Open -> (0, 0.0) | Partitioned -> (1, 0.0) | Mba l -> (2, l)
  in
  blob.{off} <- tag;
  let off = Blob.save_float blob (off + 1) limit in
  Blob.save_counters blob off t.st

let load_state t blob off =
  let off = load_floats blob off t.rate in
  let off = load_floats blob off t.slow_rate in
  let off = Blob.load_ints blob off t.last in
  let off = Blob.load_ints blob off t.run_start in
  let tag = blob.{off} in
  let limit = Blob.load_float blob (off + 1) in
  t.mode <-
    (match tag with 0 -> Open | 1 -> Partitioned | _ -> Mba limit);
  Blob.load_counters blob (off + 1 + Blob.float_words) t.st
