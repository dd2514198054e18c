(* The traced run's second half: re-execute, in this process, the
   operations each broker of the socket run read, in the order it read
   them, calling each layer's public functions with a span around every
   call:

   - Wire/Codec: encode and decode of every frame the socket run moved;
   - Broker_node.handle on a node built with the broker's configuration,
     seed and a WAL device — its Notify and Forward actions must equal
     what the socket run observed (the parity check);
   - Subscription_store add/remove/match on a journalled store fed the
     same operations, with Engine.check against that store's
     active_packed before every add;
   - Counting_matcher updates and queries mirroring that store's active
     set;
   - Store_log/Wal appends of that store, through a timed device. *)

open Probsub_core
open Inputs
module Node = Probsub_broker.Broker_node
module Message = Probsub_broker.Message
module Wire = Probsub_server.Wire
module Codec = Probsub_store_log.Codec
module Device = Probsub_store_log.Device
module Store_log = Probsub_store_log.Store_log
module Store = Subscription_store
module CM = Counting_matcher

type counts = {
  mutable subs : int;
  mutable pubs : int;
  mutable fwd_subs : int;
  mutable pub_bytes : int;
  mutable rechecks : int;
  mutable store_unsubs : int;
  mutable covered_scans : int;
  mutable inspections : int;
  mutable checks : int;
  mutable fast : int;
  mutable rspc : int;
  mutable trials : int;
  mutable k_pruned : int;
  mutable k_reduced : int;
  mutable delta_sum : float;
  mutable wal_bytes : int;
  mutable mutations : int;
  mutable parity_ok : bool;
  mutable parity_note : string;
}

type t = {
  tr : Trace.t;
  encode : Trace.layer;
  decode : Trace.layer;
  node_sub : Trace.layer;
  node_unsub : Trace.layer;
  node_pub : Trace.layer;
  store_add : Trace.layer;
  store_remove : Trace.layer;
  store_match : Trace.layer;
  engine : Trace.layer;
  mutate : Trace.layer;
  query : Trace.layer;
  wal : Trace.layer;
  c : counts;
  pub_cost_ns : float Vec.t;  (* node + wire time per publication *)
  sub_cost_ns : float Vec.t;  (* node + wire time per subscribe *)
  mutable wall_s : float;
  mutable sessions : int;  (* brokers replayed *)
}

let create () =
  let tr = Trace.create () in
  let l ?keep n = Trace.layer tr ?keep n in
  {
    tr;
    encode = l ~keep:false "wire.encode";
    decode = l ~keep:false "wire.decode";
    node_sub = l "node.sub";
    node_unsub = l "node.unsub";
    node_pub = l "node.pub";
    store_add = l "store.add";
    store_remove = l "store.remove";
    store_match = l "store.match";
    engine = l "engine.check";
    mutate = l "matcher.mutate";
    query = l "matcher.query";
    wal = l "wal.append";
    c =
      {
        subs = 0;
        pubs = 0;
        fwd_subs = 0;
        pub_bytes = 0;
        rechecks = 0;
        store_unsubs = 0;
        covered_scans = 0;
        inspections = 0;
        checks = 0;
        fast = 0;
        rspc = 0;
        trials = 0;
        k_pruned = 0;
        k_reduced = 0;
        delta_sum = 0.0;
        wal_bytes = 0;
        mutations = 0;
        parity_ok = true;
        parity_note = "";
      };
    pub_cost_ns = Vec.create ();
    sub_cost_ns = Vec.create ();
    wall_s = 0.0;
    sessions = 0;
  }

let mismatch r fmt =
  Printf.ksprintf
    (fun s ->
      if r.c.parity_ok then r.c.parity_note <- s;
      r.c.parity_ok <- false)
    fmt

(* Encode one frame and decode it back, as the two ends of a socket
   do; returns the frame's size. *)
let wire r ~seq msg =
  let frame = Trace.span r.tr r.encode (fun () -> Wire.frame ~seq msg) in
  let ok =
    Trace.span r.tr r.decode (fun () ->
        match Codec.read_frame frame ~pos:0 with
        | Codec.Frame { payload; _ } -> Result.is_ok (Wire.decode payload)
        | _ -> false)
  in
  if not ok then mismatch r "a frame did not decode";
  String.length frame

(* A device that times every WAL append and keeps the appended bytes
   for the journal records' counts. *)
let timed_device r dev pending =
  {
    dev with
    Device.append_wal =
      (fun bytes ->
        Trace.span r.tr r.wal (fun () -> dev.Device.append_wal bytes);
        r.c.wal_bytes <- r.c.wal_bytes + String.length bytes;
        pending := bytes :: !pending);
  }

(* Count the re-checks an unsubscribe's journal records carry. *)
let read_journal r pending =
  List.iter
    (fun bytes ->
      let rec go pos =
        match Codec.read_frame bytes ~pos with
        | Codec.Frame { payload; next; _ } ->
            (match Codec.decode payload with
            | Ok (Codec.Op (Store.Op_remove { reclassified; _ })) ->
                r.c.rechecks <- r.c.rechecks + List.length reclassified
            | Ok _ | Error _ -> ());
            go next
        | _ -> ()
      in
      go 0)
    !pending;
  pending := []

let ns_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

(* One broker's history; [dir] is a scratch directory for the two WAL
   devices. *)
let session r (s : Drive.t) ~dir =
  let seed = s.Drive.seed in
  let cfg = Broker.config ~dir ~seed in
  let mk sub =
    let d = Filename.concat dir sub in
    Drive.rm_rf d;
    Device.fs ~dir:d
  in
  let node =
    Node.create ~device:(mk "node") ~lease_ttl:cfg.lease_ttl ~id:cfg.id
      ~neighbors:cfg.neighbors ~policy:cfg.policy ~arity:cfg.arity ~seed ()
  in
  let pending = ref [] in
  let store, _log =
    Store_log.fresh ~policy:cfg.policy ~device:(timed_device r (mk "store") pending)
      ~arity:cfg.arity ~seed ()
  in
  read_journal r pending;
  let engine_cfg = Engine.config ~delta:1e-6 () in
  let engine_rng = Prng.of_int (seed + 7) in
  let cm = CM.create ~arity:cfg.arity () in
  let ids = Hashtbl.create 4096 in
  let link = Vec.create () in
  let seq = ref 1 in
  let run_op op =
    let wire_ns = ref 0.0 in
    let timed_wire msg =
      let w0 = Monotonic_clock.now () in
      let n = wire r ~seq:!seq msg in
      incr seq;
      wire_ns := !wire_ns +. ns_since w0;
      n
    in
    let in_bytes = timed_wire (Wire.Payload (payload op)) in
    let node_layer =
      match op with Sub _ -> r.node_sub | Unsub _ -> r.node_unsub | Pub _ -> r.node_pub
    in
    let n0 = Monotonic_clock.now () in
    let actions =
      Trace.span r.tr node_layer (fun () ->
          Node.handle node ~now:0.0 ~origin:(Message.Client 1) (payload op))
    in
    let node_ns = ns_since n0 in
    (match op with
    | Sub _ | Unsub _ -> ignore (timed_wire (Wire.Frame_ack { seq = !seq }))
    | Pub _ -> ());
    let digest = ref digest_empty and out_bytes = ref 0 in
    List.iter
      (function
        | Node.Forward { payload = p; _ } ->
            (match p with
            | Message.Subscribe { key; _ } ->
                Vec.push link (2 * key);
                r.c.fwd_subs <- r.c.fwd_subs + 1
            | Message.Unsubscribe { key } -> Vec.push link ((2 * key) + 1)
            | _ -> mismatch r "unexpected forward");
            ignore (timed_wire (Wire.Payload p))
        | Node.Notify { client; key; pub_id } ->
            digest := digest_add !digest key;
            out_bytes := !out_bytes + timed_wire (Wire.Notify { client; key; pub_id }))
      actions;
    let cost = node_ns +. !wire_ns in
    (match op with
    | Sub { key; sub } ->
        r.c.subs <- r.c.subs + 1;
        Vec.push r.sub_cost_ns cost;
        let _, subs_arr = Store.active_arrays store in
        let rep =
          Trace.span r.tr r.engine (fun () ->
              Engine.check ~config:engine_cfg ~packed:(Store.active_packed store)
                ~rng:engine_rng sub subs_arr)
        in
        let c = r.c in
        c.checks <- c.checks + 1;
        c.k_pruned <- c.k_pruned + rep.Engine.k_pruned;
        c.k_reduced <- c.k_reduced + rep.Engine.k_reduced;
        c.trials <- c.trials + rep.Engine.iterations;
        if rep.Engine.iterations > 0 then c.rspc <- c.rspc + 1 else c.fast <- c.fast + 1;
        (match (rep.Engine.verdict, rep.Engine.achieved_delta) with
        | Engine.Covered_probably, Some d -> c.delta_sum <- c.delta_sum +. d
        | _ -> ());
        let id, placement = Trace.span r.tr r.store_add (fun () -> Store.add store sub) in
        c.mutations <- c.mutations + 1;
        Hashtbl.replace ids key id;
        (match placement with
        | Store.Active -> Trace.span r.tr r.mutate (fun () -> CM.add cm ~id sub)
        | Store.Covered _ -> ());
        read_journal r pending
    | Unsub { key } -> (
        match Hashtbl.find_opt ids key with
        | None -> ()
        | Some id ->
            Hashtbl.remove ids key;
            r.c.store_unsubs <- r.c.store_unsubs + 1;
            r.c.mutations <- r.c.mutations + 1;
            let was_active = Store.is_active store id in
            let promoted = Trace.span r.tr r.store_remove (fun () -> Store.remove store id) in
            if was_active then
              Trace.span r.tr r.mutate (fun () ->
                  CM.remove cm ~id;
                  List.iter (fun p -> CM.add cm ~id:p (Store.find store p)) promoted);
            read_journal r pending)
    | Pub { id; pub } ->
        r.c.pubs <- r.c.pubs + 1;
        r.c.pub_bytes <- r.c.pub_bytes + in_bytes + !out_bytes;
        Vec.push r.pub_cost_ns cost;
        if (Vec.get s.Drive.dig_n id, Vec.get s.Drive.dig_h id) <> !digest then
          mismatch r "publication %d: notifications differ from the socket run" id;
        let before = (Store.stats store).Store.covered_scans in
        ignore (Trace.span r.tr r.store_match (fun () -> Store.match_publication store pub));
        r.c.covered_scans <- r.c.covered_scans + (Store.stats store).Store.covered_scans - before;
        let before = CM.inspections cm in
        ignore (Trace.span r.tr r.query (fun () -> CM.match_publication cm pub));
        r.c.inspections <- r.c.inspections + CM.inspections cm - before)
  in
  Vec.iter run_op s.Drive.ops;
  if Vec.to_array link <> Vec.to_array s.Drive.link_log then
    mismatch r "link frames differ from the socket run (%d replayed, %d observed)"
      (Vec.length link) (Vec.length s.Drive.link_log)

(* Brokers are replayed in order until [budget_s] is spent (at least
   one), which keeps a traced run of a long socket run within bounds. *)
let run sessions ~dir ~budget_s =
  let r = create () in
  let t0 = now () in
  List.iter
    (fun s ->
      if r.sessions = 0 || now () -. t0 < budget_s then begin
        session r s ~dir;
        r.sessions <- r.sessions + 1
      end)
    sessions;
  r.wall_s <- now () -. t0;
  r
