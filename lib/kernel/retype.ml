let the_untyped cap =
  Capability.ensure_valid cap;
  match cap.Types.target with
  | Types.Obj_untyped u -> u
  | _ -> raise (Types.Kernel_error Types.Wrong_object_type)

let () =
  List.iter Tp_fault.Fault.register
    [ "retype.take_frames"; "retype.register"; "retype.split" ]

let colour_set_of ~n_colours frames =
  List.fold_left
    (fun s f -> Colour.add s (Colour.colour_of_frame ~n_colours f))
    Colour.empty frames

let untyped_of_frames ~n_colours frames =
  let u =
    {
      Types.u_id = Types.fresh_id ();
      u_free = frames;
      u_retyped = [];
      u_colours = colour_set_of ~n_colours frames;
    }
  in
  Capability.mk_root (Types.Obj_untyped u)

let mk_child_untyped parent_cap frames colours =
  let u = the_untyped parent_cap in
  let child =
    {
      Types.u_id = Types.fresh_id ();
      u_free = frames;
      u_retyped = [];
      u_colours = colours;
    }
  in
  u.Types.u_retyped <- Types.Obj_untyped child :: u.Types.u_retyped;
  (* The child capability points at the carved-out object but sits
     under the parent in the CDT, so revoking the parent reclaims it. *)
  let child_cap =
    {
      Types.cap_id = Types.fresh_id ();
      target = Types.Obj_untyped child;
      rights = parent_cap.Types.rights;
      clone_right = false;
      parent = Some parent_cap;
      children = [];
      valid = true;
    }
  in
  parent_cap.Types.children <- child_cap :: parent_cap.Types.children;
  child_cap

let split_colours parent_cap colours =
  let u = the_untyped parent_cap in
  let n_colours =
    (* Recover the colour count from the parent's colour set: colours
       are dense from 0, so the max colour bound works for our pools. *)
    match List.rev (Colour.to_list u.Types.u_colours) with
    | [] -> raise (Types.Kernel_error Types.Insufficient_colours)
    | c :: _ -> c + 1
  in
  let mine, rest =
    List.partition
      (fun f -> Colour.mem colours (Colour.colour_of_frame ~n_colours f))
      u.Types.u_free
  in
  List.iter
    (fun c ->
      if
        not
          (List.exists
             (fun f -> Colour.colour_of_frame ~n_colours f = c)
             mine)
      then raise (Types.Kernel_error Types.Insufficient_colours))
    (Colour.to_list colours);
  Tp_fault.Fault.hit "retype.split";
  u.Types.u_free <- rest;
  mk_child_untyped parent_cap mine colours

let split_frames parent_cap ~frames =
  let u = the_untyped parent_cap in
  if List.length u.Types.u_free < frames then
    raise (Types.Kernel_error Types.Insufficient_untyped);
  let rec take n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | f :: rest -> take (n - 1) (f :: acc) rest
  in
  let mine, rest = take frames [] u.Types.u_free in
  Tp_fault.Fault.hit "retype.split";
  u.Types.u_free <- rest;
  mk_child_untyped parent_cap mine u.Types.u_colours

(* Transactional frame grab: the frames leave the untyped's free list
   immediately, but if the enclosing operation raises before it
   commits, the rollback returns them (in order, at the head — the
   exact inverse of the take). *)
let take_frames_txn txn cap n =
  let u = the_untyped cap in
  Tp_fault.Fault.hit "retype.take_frames";
  if List.length u.Types.u_free < n then
    raise (Types.Kernel_error Types.Insufficient_untyped);
  let rec take n acc rest =
    if n = 0 then (List.rev acc, rest)
    else begin
      match rest with
      | [] -> assert false
      | f :: rest -> take (n - 1) (f :: acc) rest
    end
  in
  let mine, rest = take n [] u.Types.u_free in
  u.Types.u_free <- rest;
  Txn.defer txn (fun () -> u.Types.u_free <- mine @ u.Types.u_free);
  mine

let take_frames cap n = Txn.run (fun txn -> take_frames_txn txn cap n)

let take_frames_where cap ~pred n =
  let u = the_untyped cap in
  Tp_fault.Fault.hit "retype.take_frames";
  let matching, rest = List.partition pred u.Types.u_free in
  if List.length matching < n then
    raise (Types.Kernel_error Types.Insufficient_untyped);
  let rec take k acc rest =
    if k = 0 then (List.rev acc, rest)
    else begin
      match rest with
      | [] -> assert false
      | f :: rest -> take (k - 1) (f :: acc) rest
    end
  in
  let mine, leftover = take n [] matching in
  u.Types.u_free <- leftover @ rest;
  mine

let register cap obj =
  let u = the_untyped cap in
  Tp_fault.Fault.hit "retype.register";
  u.Types.u_retyped <- obj :: u.Types.u_retyped;
  let child =
    {
      Types.cap_id = Types.fresh_id ();
      target = obj;
      rights = Types.full_rights;
      clone_right = false;
      parent = Some cap;
      children = [];
      valid = true;
    }
  in
  cap.Types.children <- child :: cap.Types.children;
  child

let retype_tcb cap ~core ~prio =
  Txn.run @@ fun txn ->
  let frames = take_frames_txn txn cap 1 in
  let tcb =
    {
      Types.t_id = Types.fresh_id ();
      t_prio = prio;
      t_state = Types.Ts_inactive;
      t_vspace = None;
      t_kernel = None;
      t_core = core;
      t_sc = None;
      t_domain = 0;
      t_frames = frames;
      t_is_idle = false;
    }
  in
  register cap (Types.Obj_tcb tcb)

let retype_frame cap =
  Txn.run @@ fun txn ->
  match take_frames_txn txn cap 1 with
  | [ f ] ->
      register cap
        (Types.Obj_frame { Types.f_id = Types.fresh_id (); f_frame = f; f_mapping = None })
  | _ -> assert false

let retype_endpoint cap =
  Txn.run @@ fun txn ->
  let frames = take_frames_txn txn cap 1 in
  register cap
    (Types.Obj_endpoint
       { Types.ep_id = Types.fresh_id (); ep_send_q = []; ep_recv_q = []; ep_frames = frames })

let retype_notification cap =
  Txn.run @@ fun txn ->
  let frames = take_frames_txn txn cap 1 in
  register cap
    (Types.Obj_notification
       { Types.nf_id = Types.fresh_id (); nf_word = 0; nf_waiters = []; nf_frames = frames })

let retype_vspace cap ~asid =
  Txn.run @@ fun txn ->
  (* One frame for the top-level page table; leaf page tables are
     allocated on demand at map time (also from the owning pool). *)
  let root_pt =
    match take_frames_txn txn cap 1 with [ f ] -> f | _ -> assert false
  in
  register cap
    (Types.Obj_vspace
       {
         Types.vs_id = Types.fresh_id ();
         vs_asid = asid;
         vs_pages = Types.Itbl.create 64;
         vs_root_pt = root_pt;
         vs_leaf_pts = Types.Itbl.create 16;
         vs_heap_next = 0x1000_0000 / Tp_hw.Defs.page_size;
         vs_tc_vpn = -1;
         vs_tc_frame_pa = 0;
         vs_tc_root_pte = 0;
         vs_tc_leaf_pte = -1;
       })

let retype_sched_context cap ~budget ~period =
  assert (budget > 0 && budget <= period);
  Txn.run @@ fun txn ->
  let frames = take_frames_txn txn cap 1 in
  register cap
    (Types.Obj_sched_context
       {
         Types.sc_id = Types.fresh_id ();
         sc_budget = budget;
         sc_period = period;
         sc_remaining = budget;
         sc_replenish_at = 0;
         sc_frames = frames;
       })

let retype_kernel_memory cap ~platform =
  let n = Layout.image_frames platform in
  Txn.run @@ fun txn ->
  let frames = take_frames_txn txn cap n in
  register cap
    (Types.Obj_kernel_memory
       { Types.km_id = Types.fresh_id (); km_frames = frames; km_image = None })

let untyped_free_frames cap = List.length (the_untyped cap).Types.u_free
