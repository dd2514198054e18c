(* The load generator: one process, no threads. It reaches the broker
   over two Unix-domain connections — the client connection, carrying
   subscribes, unsubscribes and publications, and the broker's link to
   its only neighbour, which this process plays (it answers Welcome and
   acks every forwarded frame). Control operations run closed-loop, one
   in flight; publications run open-loop at a fixed rate and are timed
   from when they were due. During a phase the generator polls without
   blocking: run.sh puts it and the broker on one CPU with the generator
   under SCHED_IDLE, so it runs only while the broker waits, and that
   CPU never idles, so no reply waits for the hypervisor to wake a
   halted virtual CPU.

   Every outcome is checked against the generator's own model:
   delivery sets against a brute-force match over its live table, ack
   accounting per control frame, and the soundness of what the broker
   withheld from the link. *)

open Probsub_core
open Inputs
module Wire = Probsub_server.Wire
module Conn = Probsub_server.Conn
module Message = Probsub_broker.Message

exception Broken of string

let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

type kind = K_sub | K_unsub | K_pub | K_barrier

let kind_name = function
  | K_sub -> "sub"
  | K_unsub -> "unsub"
  | K_pub -> "pub"
  | K_barrier -> "barrier"

let kinds = [ K_sub; K_unsub; K_pub; K_barrier ]

(* One latency sample and the first and last steal window it spanned
   (see [Steal]). *)
type sample = { ms : float; w0 : int; w1 : int }

let values v = Array.map (fun s -> s.ms) (Vec.to_array v)

(* The values of the clean samples of [v] from the [from]-th to the
   one before the [upto]-th. *)
let clean_values v ~from ~upto =
  Array.sub v.Vec.a from (upto - from)
  |> Array.to_list
  |> List.filter_map (fun s -> if Steal.clean s.w0 s.w1 then Some s.ms else None)
  |> Array.of_list

(* Where one phase's samples go. *)
type sink = {
  sub_ms : sample Vec.t;
  unsub_ms : sample Vec.t;
  pub_ms : sample Vec.t;
  late_ms : float Vec.t;  (* send time minus due time, per publication *)
  mutable unmatched : int;  (* publications no live subscription matched *)
  mutable pubs_sent : int;
}

let sink () =
  {
    sub_ms = Vec.create ();
    unsub_ms = Vec.create ();
    pub_ms = Vec.create ();
    late_ms = Vec.create ();
    unmatched = 0;
    pubs_sent = 0;
  }

type ctl = {
  c_kind : kind;
  c_sink : sink;
  c_sent : float;
  c_w0 : int;
  mutable c_acks : int;
}

(* A publication still owed notifications. *)
type pub = {
  p_sink : sink;
  p_due : float;
  p_w0 : int;
  expected : int array;  (* sorted *)
  got : Bytes.t;
  mutable n_got : int;
}

(* Per publication id, once sent. *)
let pending = 0
let complete = 1
let bad = 2

type counts = { mutable attempted : int; mutable failed : int }

type t = {
  dir : string;
  seed : int;  (* the broker's seed *)
  pid : int;
  client : Conn.t;
  listen : Unix.file_descr;
  mutable link : Conn.t option;
  mutable link_seq : int;
  mutable client_welcomed : bool;
  mutable link_welcomed : bool;
  mutable seq : int;
  table : Table.t;  (* what the broker holds, by our own bookkeeping *)
  linked : Table.t;  (* what the broker forwarded on its link and still holds there *)
  link_log : int Vec.t;  (* observed link frames: 2k for Subscribe k, 2k+1 for Unsubscribe k *)
  ops : op Vec.t;  (* every operation, in the order the broker read it *)
  pubs : (int, pub) Hashtbl.t;  (* pending publications *)
  state : int Vec.t;  (* per publication id: pending, complete or bad *)
  dig_n : int Vec.t;  (* per publication id: digest of every delivered key *)
  dig_h : int Vec.t;
  ctls : (int, ctl) Hashtbl.t;  (* by frame sequence number *)
  mutable in_flight : bool;
  mutable next_pub_id : int;
  mutable fwd_subs : int;
  fwd_by_ctl : int Vec.t;  (* fwd_subs after the i-th control ack *)
  counts : (kind * counts) list;
  mutable stray_acks : int;
  mutable outstanding : int;  (* publications still owed notifications *)
}

let count t k = List.assoc k t.counts

(* ---- reading ---- *)

let send_link t msg =
  match t.link with
  | Some c ->
      ignore (Conn.send_msg c ~seq:t.link_seq msg);
      t.link_seq <- t.link_seq + 1
  | None -> ()

let on_link_msg t (seq, msg) =
  match msg with
  | Wire.Hello _ ->
      send_link t (Wire.Welcome { session = 1; last_seen = 0; epoch = 0 });
      t.link_welcomed <- true
  | Wire.Payload (Message.Subscribe { key; sub; epoch = _ }) ->
      Table.remove t.linked key;
      Table.add t.linked key sub;
      Vec.push t.link_log (2 * key);
      t.fwd_subs <- t.fwd_subs + 1;
      send_link t (Wire.Frame_ack { seq })
  | Wire.Payload (Message.Unsubscribe { key }) ->
      Table.remove t.linked key;
      Vec.push t.link_log ((2 * key) + 1);
      send_link t (Wire.Frame_ack { seq })
  | Wire.Payload _ -> broken "unexpected payload on the link"
  | Wire.Bye -> broken "broker closed its link"
  | Wire.Welcome _ | Wire.Notify _ | Wire.Frame_ack _ | Wire.Repl_stream _ -> ()

let rec drain_msgs conn f =
  match Conn.next conn with
  | `Msg m ->
      f m;
      drain_msgs conn f
  | `Pending -> ()
  | `Corrupt reason -> broken "corrupt frame: %s" reason

let rec read_all conn f =
  match Conn.recv conn with
  | `Data _ ->
      drain_msgs conn f;
      read_all conn f
  | `Blocked -> ()
  | `Eof -> broken "broker connection closed"

let drain_link t =
  match t.link with Some c -> read_all c (on_link_msg t) | None -> ()

let on_notify t ~key ~pub_id =
  if pub_id < 0 || pub_id >= Vec.length t.state then
    broken "notification for unknown publication %d" pub_id;
  let n, h = digest_add (Vec.get t.dig_n pub_id, Vec.get t.dig_h pub_id) key in
  Vec.set t.dig_n pub_id n;
  Vec.set t.dig_h pub_id h;
  if Vec.get t.state pub_id <> pending then Vec.set t.state pub_id bad
  else
    let p = Hashtbl.find t.pubs pub_id in
    let rec find lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let k = p.expected.(mid) in
        if k = key then mid else if k < key then find (mid + 1) hi else find lo mid
    in
    match find 0 (Array.length p.expected) with
    | -1 -> Vec.set t.state pub_id bad
    | i when Bytes.get p.got i <> '\000' -> Vec.set t.state pub_id bad
    | i ->
        Bytes.set p.got i '\001';
        p.n_got <- p.n_got + 1;
        if p.n_got = Array.length p.expected then begin
          Vec.set t.state pub_id complete;
          Hashtbl.remove t.pubs pub_id;
          t.outstanding <- t.outstanding - 1;
          Vec.push p.p_sink.pub_ms
            { ms = (now () -. p.p_due) *. 1e3; w0 = p.p_w0; w1 = Steal.current () }
        end

let on_client_msg t (_seq, msg) =
  match msg with
  | Wire.Welcome _ -> t.client_welcomed <- true
  | Wire.Frame_ack { seq } -> (
      (* The broker writes a control operation's link frames before its
         ack, so they are readable now; reading them first keeps the
         link model exact at every ack. *)
      drain_link t;
      match Hashtbl.find_opt t.ctls seq with
      | None -> t.stray_acks <- t.stray_acks + 1
      | Some c ->
          c.c_acks <- c.c_acks + 1;
          if c.c_acks = 1 then begin
            t.in_flight <- false;
            Vec.push t.fwd_by_ctl t.fwd_subs;
            let s = { ms = (now () -. c.c_sent) *. 1e3; w0 = c.c_w0; w1 = Steal.current () } in
            match c.c_kind with
            | K_sub -> Vec.push c.c_sink.sub_ms s
            | K_unsub -> Vec.push c.c_sink.unsub_ms s
            | K_pub | K_barrier -> ()
          end)
  | Wire.Notify { client = _; key; pub_id } -> on_notify t ~key ~pub_id
  | Wire.Bye -> broken "broker closed the client connection"
  | Wire.Hello _ | Wire.Payload _ | Wire.Repl_stream _ -> ()

let flush conn =
  match Conn.flush conn with `Ok -> () | `Closed -> broken "write failed"

(* One select round: write what is queued, accept the broker's dial,
   read both connections. *)
let poll t timeout =
  Steal.tick ();
  flush t.client;
  Option.iter flush t.link;
  let rd =
    Conn.fd t.client
    :: (match t.link with Some c -> [ Conn.fd c ] | None -> [ t.listen ])
  in
  let wr =
    (if Conn.wants_write t.client then [ Conn.fd t.client ] else [])
    @
    match t.link with
    | Some c when Conn.wants_write c -> [ Conn.fd c ]
    | Some _ | None -> []
  in
  let readable =
    match Unix.select rd wr [] (Float.max 0.0 timeout) with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  if t.link = None && List.mem t.listen readable then begin
    let fd, _ = Unix.accept t.listen in
    t.link <- Some (Conn.create ~max_queue_bytes:(1 lsl 30) fd)
  end;
  drain_link t;
  read_all t.client (on_client_msg t);
  Option.iter flush t.link

(* ---- sending ---- *)

let send_frame t msg =
  let seq = t.seq in
  t.seq <- seq + 1;
  ignore (Conn.send_msg t.client ~seq msg);
  seq

let note_sent t k = (count t k).attempted <- (count t k).attempted + 1

let send_ctl t sink op =
  let kind =
    match op with
    | Sub { key; sub } ->
        Table.add t.table key sub;
        K_sub
    | Unsub { key } ->
        Table.remove t.table key;
        K_unsub
    | Pub _ -> invalid_arg "Drive.send_ctl"
  in
  Vec.push t.ops op;
  let seq = send_frame t (Wire.Payload (payload op)) in
  Hashtbl.replace t.ctls seq
    { c_kind = kind; c_sink = sink; c_sent = now (); c_w0 = Steal.current (); c_acks = 0 };
  t.in_flight <- true;
  note_sent t kind

(* A control frame the broker acks without acting on: an unsubscribe of
   a key never used. Its ack arrives after everything the broker sent
   for the frames before it. *)
let barrier_key = 1 lsl 40

let barrier t =
  let sink = sink () in
  let seq = send_frame t (Wire.Payload (Message.Unsubscribe { key = barrier_key })) in
  Vec.push t.ops (Unsub { key = barrier_key });
  Hashtbl.replace t.ctls seq
    { c_kind = K_barrier; c_sink = sink; c_sent = now (); c_w0 = Steal.current (); c_acks = 0 };
  t.in_flight <- true;
  note_sent t K_barrier;
  let deadline = now () +. 60.0 in
  while t.in_flight do
    if now () > deadline then broken "barrier never acked";
    poll t 0.01
  done

let send_pub t sink rng ~due =
  let id = t.next_pub_id in
  t.next_pub_id <- id + 1;
  let pub = publication rng t.table in
  let expected = Table.matching t.table pub in
  let n = Array.length expected in
  Vec.push t.dig_n 0;
  Vec.push t.dig_h 0;
  if n = 0 then begin
    sink.unmatched <- sink.unmatched + 1;
    Vec.push t.state complete
  end
  else begin
    Vec.push t.state pending;
    t.outstanding <- t.outstanding + 1;
    Hashtbl.replace t.pubs id
      {
        p_sink = sink;
        p_due = due;
        p_w0 = Steal.window_at due;
        expected;
        got = Bytes.make n '\000';
        n_got = 0;
      }
  end;
  Vec.push t.ops (Pub { id; pub });
  ignore (send_frame t (Wire.Payload (Message.Publish { id; pub })));
  sink.pubs_sent <- sink.pubs_sent + 1;
  Vec.push sink.late_ms ((now () -. due) *. 1e3);
  note_sent t K_pub

(* One phase. [next_ctl] is asked for the next control operation
   whenever none is in flight and [ctl_gap] seconds have passed since
   the last one was sent; [None] ends the control script. Publications
   are due every [1 / pub_rate] seconds from the start. The phase ends
   when [stop ~ctl_done ~elapsed] holds. *)
let run_phase t ?(pub_rate = 0.0) ?(ctl_gap = 0.0) ?(pub_rng = Prng.of_int 0)
    ~next_ctl ~stop sink =
  let t0 = now () in
  let pubs = ref 0 in
  let next_due () = if pub_rate > 0.0 then t0 +. (float !pubs /. pub_rate) else infinity in
  let last_ctl = ref neg_infinity in
  let ctl_done = ref false in
  let rec loop () =
    let tnow = now () in
    if not (stop ~ctl_done:(!ctl_done && not t.in_flight) ~elapsed:(tnow -. t0)) then begin
      while next_due () <= now () do
        send_pub t sink pub_rng ~due:(next_due ());
        incr pubs
      done;
      if (not t.in_flight) && (not !ctl_done) && now () >= !last_ctl +. ctl_gap then begin
        match next_ctl () with
        | Some op ->
            last_ctl := now ();
            send_ctl t sink op
        | None -> ctl_done := true
      end;
      poll t 0.0;
      loop ()
    end
  in
  loop ()

(* Wait, at most [timeout] seconds, for the notifications still owed. *)
let await_outstanding t ~timeout =
  let deadline = now () +. timeout in
  while t.outstanding > 0 && now () < deadline do
    poll t 0.005
  done

(* ---- set-up and checks ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Start a broker in a fresh directory and complete both handshakes. *)
let start ~dir ~seed =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let sock id = Probsub_server.Broker_server.socket_path ~sock_dir:dir id in
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX (sock Broker.link_id));
  Unix.listen listen 4;
  let pid = Broker.spawn ~dir ~seed in
  let deadline = now () +. 30.0 in
  let rec dial () =
    match connect_unix (sock Broker.broker_id) with
    | Some fd -> fd
    | None ->
        if now () > deadline then begin
          Broker.stop pid;
          broken "broker never accepted a connection"
        end;
        Unix.sleepf 0.001;
        dial ()
  in
  let fd = dial () in
  let t =
    {
      dir;
      seed;
      pid;
      client = Conn.create ~max_queue_bytes:(1 lsl 30) fd;
      listen;
      link = None;
      link_seq = 0;
      client_welcomed = false;
      link_welcomed = false;
      seq = 1;
      table = Table.create ();
      linked = Table.create ();
      link_log = Vec.create ();
      ops = Vec.create ();
      pubs = Hashtbl.create 4096;
      state = Vec.create ();
      dig_n = Vec.create ();
      dig_h = Vec.create ();
      ctls = Hashtbl.create 4096;
      in_flight = false;
      next_pub_id = 0;
      fwd_subs = 0;
      fwd_by_ctl = Vec.create ();
      counts = List.map (fun k -> (k, { attempted = 0; failed = 0 })) kinds;
      stray_acks = 0;
      outstanding = 0;
    }
  in
  ignore
    (Conn.send_msg t.client ~seq:0
       (Wire.Hello
          { role = Wire.Client_role 1; session = 1; last_seen = 0; epoch = 0 }));
  while not (t.client_welcomed && t.link_welcomed) do
    if now () > deadline then begin
      Broker.stop pid;
      broken "handshakes never completed"
    end;
    poll t 0.005
  done;
  t

(* Every withheld live subscription must lie inside the union of the
   live subscriptions forwarded on the link: sampled points of it are
   tested against the link table. Returns the number checked and the
   keys that failed. *)
let cover_check t rng ~points =
  let forwarded = ref [] in
  Table.iter (fun _ s -> forwarded := s :: !forwarded) t.linked;
  let forwarded = Array.of_list !forwarded in
  let checked = ref 0 and missed = ref [] in
  Table.iter
    (fun key s ->
      if not (Table.mem t.linked key) then begin
        incr checked;
        let ok = ref true in
        for _ = 1 to points do
          let p = point_in rng s in
          if not (Array.exists (fun f -> Subscription.covers_point f p) forwarded) then
            ok := false
        done;
        if not !ok then missed := key :: !missed
      end)
    t.table;
  (!checked, List.rev !missed)

(* Close the books on this broker: after a barrier, every control frame
   must have been acked exactly once and every publication must have
   received exactly its expected notifications. Cover misses count as
   failed subscribes. *)
let settle t rng =
  barrier t;
  let fail k fmt =
    (count t k).failed <- (count t k).failed + 1;
    Printf.eprintf ("perfbench: failed %s: " ^^ fmt ^^ "\n%!") (kind_name k)
  in
  Hashtbl.iter
    (fun seq c -> if c.c_acks <> 1 then fail c.c_kind "frame %d acked %d times" seq c.c_acks)
    t.ctls;
  for id = 0 to Vec.length t.state - 1 do
    if Vec.get t.state id = bad then
      fail K_pub "publication %d: unexpected or repeated notifications" id
    else
      match Hashtbl.find_opt t.pubs id with
      | Some p ->
          fail K_pub "publication %d: %d of %d expected notifications" id p.n_got
            (Array.length p.expected)
      | None -> ()
  done;
  let checked, missed = cover_check t rng ~points:8 in
  List.iter (fun key -> fail K_sub "subscription %d withheld but not covered on the link" key) missed;
  for _ = 1 to t.stray_acks do
    fail K_sub "an ack for no frame sent"
  done;
  checked

let undelivered t =
  Hashtbl.fold (fun _ p acc -> acc + Array.length p.expected - p.n_got) t.pubs 0

let close t =
  Conn.close t.client;
  Option.iter Conn.close t.link;
  (try Unix.close t.listen with Unix.Unix_error _ -> ());
  Broker.stop t.pid;
  rm_rf t.dir
