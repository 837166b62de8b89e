(* Host-clock spans recorded around the benchmark's own calls into the
   libraries.  A span closes whether its thunk returns or raises: guest
   bodies end their slice by raising [Uctx.Preempted], so a wrapper that
   recorded only on normal return would lose nearly every guest span.

   Spans stay in memory until [write_chrome] dumps them as Chrome /
   Perfetto JSON at exit.  With recording off, [with_] is a plain call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  cell : int;  (** the unit of work the span belongs to, -1 if none *)
  t0 : float;
  t1 : float;
  w0 : float;  (** [Gc.minor_words] at open *)
  w1 : float;  (** [Gc.minor_words] at close *)
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let current_cell = ref (-1)

let now = Unix.gettimeofday

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let cell = !current_cell in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let close () =
      let t1 = now () in
      let w1 = Gc.minor_words () in
      open_ids := List.tl !open_ids;
      recorded := { id; name; parent; cell; t0; t1; w0; w1 } :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close ();
        Printexc.raise_with_backtrace e bt
  end

let all () = List.rev !recorded

type layer = { l_total : float; l_self : float; l_words : float; l_count : int }

(* Per-name totals.  A span's self time is its duration minus the
   durations of its direct children; self words likewise. *)
let layers () =
  let child_s = Hashtbl.create 1024 and child_w = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent))
        in
        add child_s (s.t1 -. s.t0);
        add child_w (s.w1 -. s.w0)
      end)
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let cs = Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id) in
      let cw = Option.value ~default:0.0 (Hashtbl.find_opt child_w s.id) in
      let d = s.t1 -. s.t0 in
      let l =
        Option.value
          ~default:{ l_total = 0.0; l_self = 0.0; l_words = 0.0; l_count = 0 }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        {
          l_total = l.l_total +. d;
          l_self = l.l_self +. (d -. cs);
          l_words = l.l_words +. (s.w1 -. s.w0 -. cw);
          l_count = l.l_count + 1;
        })
    !recorded;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Wall time covered by root spans. *)
let root_time () =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. (s.t1 -. s.t0) else acc)
    0.0 !recorded

let write_chrome path =
  let spans = all () in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"cell\":%d,\"minor_words\":%.0f}}"
        s.name
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.cell (s.w1 -. s.w0))
    spans;
  output_string oc "\n]}\n";
  close_out oc
