(* perfbench: one broker under test, one load generator, three
   workloads. See README.md for what each workload stresses and how the
   end-to-end metrics map onto the layers. *)

open Probsub_core
open Inputs
module D = Drive

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage =
  "usage: perfbench --workload admit|notify|churn --seed N --seconds S --trace 0|1\n\
  \       perfbench broker DIR SEED   (internal: the broker process)"

let parse argv =
  let rec go acc = function
    | "--workload" :: w :: tl -> go { acc with workload = w } tl
    | "--seed" :: s :: tl -> go { acc with seed = int_of_string s } tl
    | "--seconds" :: s :: tl -> go { acc with seconds = float_of_string s } tl
    | "--trace" :: ("0" | "1" as v) :: tl -> go { acc with trace = v = "1" } tl
    | [] -> acc
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  let a = go { workload = ""; seed = 1; seconds = 10.0; trace = false } argv in
  if not (List.mem a.workload [ "admit"; "notify"; "churn" ]) then
    failwith "--workload must be admit, notify or churn";
  if not (a.seconds > 0.0) then failwith "--seconds must be positive";
  a

(* ---- workload shapes (README.md records why) ---- *)

(* Every workload runs in rounds. A round starts a fresh broker on its
   own seed-determined inputs, so one run averages over many
   independent tables: on the §6.4 stream the cost of a table depends
   so much on its few widest subscriptions that one table per run would
   make every figure a draw of the seed. Rounds repeat until the run's
   seconds are spent, and at least a workload's fixed number run; the
   set-up times and forwarded subscriptions of those rounds are its
   [setup_s] and [fwd_subs]. *)
let admit_fixed_rounds = 24
let notify_fixed_rounds = 14
let churn_fixed_rounds = 6

(* admit: a round grows an empty broker by this many control
   operations, one in ten an unsubscribe. *)
let admit_ops = 250
let admit_pub_rate = 150.0

(* notify: a round admits a base table, then publishes at a fixed rate
   for [notify_s] seconds beside a thin control stream. *)
let notify_base = 300
let notify_rate = 400.0
let notify_s = 0.75
let notify_ctl_gap = 0.025

(* churn: a round admits a base table, then runs this many
   unsubscribe/subscribe pairs beside a moderate publication rate. *)
let churn_base = 100
let churn_pairs = 4
let churn_children = 2
let churn_pub_rate = 100.0

(* Capacity search on notify's last table: 0.5 s windows; a window
   passes when its publication p99 is under the limit and it leaves no
   backlog behind. *)
let latency_limit_ms = 10.0
let window_s = 0.5

(* Traced runs only: the publication-only window that prices a
   publication in broker CPU. *)
let calibration_s = 2.0

(* Traced runs only: wall time for replaying brokers in-process. *)
let replay_budget_s = 60.0

let work_root = ".perfbench"

(* Independent, seed-determined generator streams. *)
let stream seed salt = Prng.of_int ((seed * 1_000_003) + salt)

(* One round: its publication percentiles over its clean samples (see
   [Steal]; nan where it had none), where its control samples lie in the
   run's sinks, and the share of its steal windows that had steal. *)
type round_stats = {
  pub_p50 : float;
  pub_p90 : float;
  subs : int * int;  (* [from, to) in [run.main.sub_ms] *)
  unsubs : int * int;
  stolen : float;
}

(* Everything one run accumulates across brokers. *)
type run = {
  args : args;
  dir : string;
  main : D.sink;  (* the measured samples *)
  setup_s : float Vec.t;  (* every round's, in round order *)
  rss_mb : float Vec.t;
  sessions : D.t Vec.t;  (* every broker, settled, for the books and the replay *)
  mutable fixed_setup_s : float;
  mutable fwd_subs : int;
  mutable cover_checked : int;
  mutable capacity : float;
  mutable ctl_busy_s : float;  (* wall time of the measured control streams *)
  mutable cpu_main_s : float;  (* broker CPU in measured phases *)
  mutable cpu_base_s : float;  (* broker CPU admitting base tables *)
  mutable base_subs : int;
  mutable cpu_cal_s : float;
  mutable cal_pubs : int;
  mutable main_ctl : int;
  round_stats : round_stats Vec.t;
}

let fresh_key t = Vec.length t.D.ops

(* Close the books on one broker: settle, read its memory peak, stop it. *)
let finish run t ~rng =
  run.cover_checked <- run.cover_checked + D.settle t rng;
  Vec.push run.rss_mb (Broker.peak_rss_mb t.D.pid);
  D.close t;
  Vec.push run.sessions t

(* Set-up of one round: start the broker and admit [base] subscriptions
   closed-loop, with no publications. *)
let setup run ~seed ~round ~base =
  let rng = stream seed (1000 + round) in
  let t0 = now () in
  let t = D.start ~dir:run.dir ~seed:((seed * 1000) + round) in
  let cpu0 = Broker.cpu_s t.D.pid in
  let n = ref 0 in
  if base > 0 then
    D.run_phase t
      ~next_ctl:(fun () ->
        if !n >= base then None
        else begin
          incr n;
          Some (Sub { key = fresh_key t; sub = next_sub rng })
        end)
      ~stop:(fun ~ctl_done ~elapsed:_ -> ctl_done)
      (D.sink ());
  Vec.push run.setup_s (now () -. t0);
  run.cpu_base_s <- run.cpu_base_s +. (Broker.cpu_s t.D.pid -. cpu0);
  run.base_subs <- run.base_subs + base;
  t

(* A measured phase: broker CPU and control-stream wall time are
   accounted to the run. *)
let measured run t phase =
  let cpu0 = Broker.cpu_s t.D.pid and ops0 = Vec.length t.D.ops and pubs0 = run.main.D.pubs_sent in
  let t0 = now () in
  phase ();
  run.ctl_busy_s <- run.ctl_busy_s +. (now () -. t0);
  run.cpu_main_s <- run.cpu_main_s +. (Broker.cpu_s t.D.pid -. cpu0);
  run.main_ctl <- run.main_ctl + (Vec.length t.D.ops - ops0) - (run.main.D.pubs_sent - pubs0)

(* Median over rounds of one per-round figure, skipping rounds that had
   no sample of it. *)
let over_rounds rounds field =
  Report.median
    (Array.of_list (List.filter (fun v -> not (Float.is_nan v)) (List.map field rounds)))

(* The rounds whose share of stolen windows is at most the run's median
   share. On a shared host the clean samples of a round with much steal
   still read slow (contention the hypervisor does not count as steal),
   so control latencies come from the calmer half of the rounds. *)
let calm_rounds rounds =
  let med = Report.median (Array.of_list (List.map (fun r -> r.stolen) rounds)) in
  List.filter (fun r -> r.stolen <= med) rounds

(* The clean samples of [v] that the given rounds took, pooled. *)
let pooled rounds v range =
  Array.concat
    (List.map
       (fun r ->
         let lo, hi = range r in
         D.clean_values v ~from:lo ~upto:hi)
       rounds)

(* Rounds until the run's seconds are spent and at least [fixed] have
   run; the last broker is returned unsettled. Each round's publication
   percentiles over its clean samples are kept, and the run reports
   their median over rounds: a few rounds slowed by whatever else the
   host runs then move the figure little. Control latencies are pooled
   over the calm rounds instead (see [calm_rounds]): a round holds too
   few of them on notify for a percentile of its own, and rounds with
   few clean samples should weigh little. The median set-up time and
   the forwarded-subscription count of the first [fixed] rounds are the
   run's [setup_s] and [fwd_subs]: their tables and control scripts are
   fixed by the seed, where the rounds after them depend on how fast
   the run went. *)
let rounds run ~fixed round =
  let t_end = now () +. run.args.seconds in
  let r = ref 0 and last = ref None in
  let m = run.main in
  while Option.is_none !last do
    let s0 = Vec.length m.D.sub_ms and u0 = Vec.length m.D.unsub_ms and p0 = Vec.length m.D.pub_ms in
    let w0 = Steal.current () in
    let t = round !r in
    D.await_outstanding t ~timeout:10.0;
    Steal.close ();
    let pubs = D.clean_values m.D.pub_ms ~from:p0 ~upto:(Vec.length m.D.pub_ms) in
    Vec.push run.round_stats
      {
        pub_p50 = Report.median pubs;
        pub_p90 = Report.pct pubs 0.9;
        subs = (s0, Vec.length m.D.sub_ms);
        unsubs = (u0, Vec.length m.D.unsub_ms);
        stolen = Steal.stolen_in w0 (Steal.current ());
      };
    if !r < fixed then run.fwd_subs <- run.fwd_subs + t.D.fwd_subs;
    incr r;
    if !r < fixed || now () < t_end then finish run t ~rng:(stream run.args.seed (2000 + !r))
    else last := Some t
  done;
  run.fixed_setup_s <- Report.median (Array.sub run.setup_s.Vec.a 0 fixed);
  Option.get !last

(* The most recently subscribed key still live: admit's subscribers
   that leave do so right after joining, so no other subscription has
   recorded theirs as a coverer. Removing an old subscription that
   covers others costs up to seconds of §5 re-checks — churn's subject;
   here it would drown the admission path. *)
let recent_key t =
  let ops = t.D.ops in
  let rec back i =
    match Vec.get ops i with
    | Sub { key; _ } when Table.mem t.D.table key -> key
    | _ -> back (i - 1)
  in
  back (Vec.length ops - 1)

let admit run =
  let seed = run.args.seed in
  rounds run ~fixed:admit_fixed_rounds (fun r ->
      let t = setup run ~seed ~round:r ~base:0 in
      let ctl_rng = stream seed (3000 + r) and pub_rng = stream seed (4000 + r) in
      let n = ref 0 in
      measured run t (fun () ->
          D.run_phase t ~pub_rate:admit_pub_rate ~pub_rng
            ~next_ctl:(fun () ->
              if !n >= admit_ops then None
              else begin
                incr n;
                if Table.size t.D.table > 0 && Prng.int ctl_rng 10 = 0 then
                  Some (Unsub { key = recent_key t })
                else Some (Sub { key = fresh_key t; sub = next_sub ctl_rng })
              end)
            ~stop:(fun ~ctl_done ~elapsed:_ -> ctl_done)
            run.main);
      t)

(* The thin control stream: a client subscribes to a copy of a popular
   (forwarded) interest and leaves again, so the table size stays
   constant and coverage checking stays on its fast paths. *)
let thin_stream t rng =
  let last = ref None in
  fun () ->
    match !last with
    | Some key ->
        last := None;
        Some (Unsub { key })
    | None ->
        let key = fresh_key t in
        last := Some key;
        let sub = Option.get (Table.find t.D.linked (Table.pick t.D.linked rng)) in
        Some (Sub { key; sub })

(* Publications at [rate] for one window; true when its p99 meets the
   latency limit and it left no backlog behind. *)
let window t rng ~rate ~ctl_rng =
  let sink = D.sink () in
  D.run_phase t ~pub_rate:rate ~pub_rng:rng ~ctl_gap:notify_ctl_gap
    ~next_ctl:(thin_stream t ctl_rng)
    ~stop:(fun ~ctl_done:_ ~elapsed -> elapsed >= window_s)
    sink;
  let backlog = t.D.outstanding in
  D.await_outstanding t ~timeout:5.0;
  let p99 = Report.pct (D.values sink.D.pub_ms) 0.99 in
  p99 <= latency_limit_ms && float backlog <= Float.max 2.0 (rate *. 0.01)

let capacity_search t ~seed =
  let rng = stream seed 31 and ctl_rng = stream seed 32 in
  let ok r = window t rng ~rate:r ~ctl_rng in
  let rec grow lo r steps =
    if steps = 0 || not (ok r) then (lo, r) else grow r (r *. 1.5) (steps - 1)
  in
  let lo, hi = grow 0.0 notify_rate 7 in
  let rec bisect lo hi steps =
    if steps = 0 then lo
    else
      let mid = (lo +. hi) /. 2.0 in
      if ok mid then bisect mid hi (steps - 1) else bisect lo mid (steps - 1)
  in
  bisect lo hi 2

let notify run =
  let seed = run.args.seed in
  let t =
    rounds run ~fixed:notify_fixed_rounds (fun r ->
        let t = setup run ~seed ~round:r ~base:notify_base in
        measured run t (fun () ->
            D.run_phase t ~pub_rate:notify_rate ~pub_rng:(stream seed (4000 + r))
              ~ctl_gap:notify_ctl_gap
              ~next_ctl:(thin_stream t (stream seed (3000 + r)))
              ~stop:(fun ~ctl_done:_ ~elapsed -> elapsed >= notify_s)
              run.main);
        t)
  in
  run.capacity <- capacity_search t ~seed;
  t

(* An active subscription on the link that other withheld subscriptions
   recorded as their coverer, so removing it forces §5 re-checks. A
   pairwise-covered subscription records the lowest-id active that
   covers it, and ids follow key order, so the load generator can name
   it: the linked key of least value that covers it. Targets are drawn
   among keys recorded by at least [churn_children], so every unsubscribe re-checks
   several subscriptions and its cost is a sum over them rather than a
   draw of whether one re-check needs RSPC; failing that, the key
   recorded by the most. *)
let churn_target t rng =
  let linked = ref [] in
  Table.iter (fun k s -> linked := (k, s) :: !linked) t.D.linked;
  let linked = List.sort (fun (a, _) (b, _) -> Int.compare a b) !linked in
  let tally = Hashtbl.create 64 in
  Table.iter
    (fun k w ->
      if not (Table.mem t.D.linked k) then
        match List.find_opt (fun (_, s) -> Subscription.covers_sub s w) linked with
        | Some (c, _) -> Hashtbl.replace tally c (1 + Option.value ~default:0 (Hashtbl.find_opt tally c))
        | None -> ())
    t.D.table;
  let count k = Option.value ~default:0 (Hashtbl.find_opt tally k) in
  match List.filter (fun (k, _) -> count k >= churn_children) linked with
  | [] ->
      List.fold_left (fun (bk, bn) (k, _) -> if count k > bn then (k, count k) else (bk, bn))
        (fst (List.hd linked), -1) linked
      |> fst
  | several -> fst (List.nth several (Prng.int rng (List.length several)))

let churn run =
  let seed = run.args.seed in
  rounds run ~fixed:churn_fixed_rounds (fun r ->
      let t = setup run ~seed ~round:r ~base:churn_base in
      let ctl_rng = stream seed (3000 + r) in
      let pairs = ref 0 and unsub_next = ref true in
      measured run t (fun () ->
          D.run_phase t ~pub_rate:churn_pub_rate ~pub_rng:(stream seed (4000 + r))
            ~next_ctl:(fun () ->
              if !pairs >= churn_pairs then None
              else begin
                let op =
                  if !unsub_next then Unsub { key = churn_target t ctl_rng }
                  else begin
                    incr pairs;
                    Sub { key = fresh_key t; sub = next_sub ctl_rng }
                  end
                in
                unsub_next := not !unsub_next;
                Some op
              end)
            ~stop:(fun ~ctl_done ~elapsed:_ -> ctl_done)
            run.main);
      t)

(* ---- host fingerprint ---- *)

let cores () =
  let s = Broker.read_file "/proc/cpuinfo" in
  List.length
    (List.filter
       (fun l -> String.starts_with ~prefix:"processor" l)
       (String.split_on_char '\n' s))

(* A digest of the library sources, which identifies the code under
   test when the checkout carries no version-control metadata. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort String.compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p else [ p ])
    | exception Sys_error _ -> []
  in
  files "lib"
  |> List.map (fun f -> Digest.to_hex (Digest.file f))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let commit () =
  match Sys.getenv_opt "PERFBENCH_COMMIT" with Some c when c <> "" -> c | _ -> "unknown"

(* ---- the run ---- *)

let samples_obj name a =
  let open Report in
  ( name,
    Obj
      [
        ("n", Num (float (Array.length a)));
        ("p50", Num (if Array.length a = 0 then 0.0 else median a));
        ("p99", Num (if Array.length a = 0 then 0.0 else pct a 0.99));
        ("max", Num (if Array.length a = 0 then 0.0 else pct a 1.0));
      ] )

let run_workload args =
  let dir = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  at_exit (fun () -> D.rm_rf dir);
  let run =
    {
      args;
      dir;
      main = D.sink ();
      setup_s = Vec.create ();
      rss_mb = Vec.create ();
      sessions = Vec.create ();
      fixed_setup_s = nan;
      fwd_subs = 0;
      cover_checked = 0;
      capacity = nan;
      ctl_busy_s = 0.0;
      cpu_main_s = 0.0;
      cpu_base_s = 0.0;
      base_subs = 0;
      cpu_cal_s = nan;
      cal_pubs = 0;
      main_ctl = 0;
      round_stats = Vec.create ();
    }
  in
  let last =
    match args.workload with
    | "admit" -> admit run
    | "notify" -> notify run
    | _ -> churn run
  in
  if args.trace then begin
    (* A publication-only window on the final table, so broker CPU per
       publication is read where nothing else runs. *)
    let cpu0 = Broker.cpu_s last.D.pid in
    let sink = D.sink () in
    D.run_phase last ~pub_rate:notify_rate ~pub_rng:(stream args.seed 81)
      ~next_ctl:(fun () -> None)
      ~stop:(fun ~ctl_done:_ ~elapsed -> elapsed >= calibration_s)
      sink;
    D.await_outstanding last ~timeout:10.0;
    run.cpu_cal_s <- Broker.cpu_s last.D.pid -. cpu0;
    run.cal_pubs <- sink.D.pubs_sent
  end;
  finish run last ~rng:(stream args.seed 91);
  run

(* ---- the traced run's per-layer metrics ---- *)

let per_layer run ~sub_p50_ms ~pub_p50_ms =
  let sessions = Array.to_list (Vec.to_array run.sessions) in
  let rdir = run.dir ^ "-replay" in
  at_exit (fun () -> D.rm_rf rdir);
  D.rm_rf rdir;
  Unix.mkdir rdir 0o755;
  let r = Replay.run sessions ~dir:rdir ~budget_s:replay_budget_s in
  Trace.write r.Replay.tr
    (Filename.concat work_root
       (Printf.sprintf "spans-%s-%d.tsv" run.args.workload run.args.seed));
  let c = r.Replay.c in
  let per a b = if b = 0 then 0.0 else float a /. float b in
  let med v = if Vec.length v = 0 then 0.0 else Report.median (Vec.to_array v) in
  let us l p = if l.Trace.count = 0 then 0.0 else Trace.self_us l p in
  let cpu_pub = run.cpu_cal_s /. float run.cal_pubs in
  let cpu_sub =
    if run.args.workload = "admit" then
      (run.cpu_main_s -. (float run.main.D.pubs_sent *. cpu_pub)) /. float run.main_ctl
    else run.cpu_base_s /. float run.base_subs
  in
  let lost = Vec.to_array run.sessions |> Array.fold_left (fun a t -> a + D.undelivered t) 0 in
  ( r,
    [
      ("wire.encode_ns", Trace.mean_self_ns r.Replay.encode, "ns");
      ("wire.decode_ns", Trace.mean_self_ns r.Replay.decode, "ns");
      ("wire.bytes_per_pub", per c.Replay.pub_bytes c.Replay.pubs, "B");
      ("server.cpu_us_per_pub", cpu_pub *. 1e6, "us");
      ("server.cpu_us_per_sub", cpu_sub *. 1e6, "us");
      ("server.self_us_per_pub", (pub_p50_ms *. 1e3) -. (med r.Replay.pub_cost_ns /. 1e3), "us");
      ("server.self_us_per_sub", (sub_p50_ms *. 1e3) -. (med r.Replay.sub_cost_ns /. 1e3), "us");
      ("server.notify_lost", float lost, "count");
      ("node.sub_us", us r.Replay.node_sub 0.5, "us");
      ("node.unsub_us", us r.Replay.node_unsub 0.5, "us");
      ("node.pub_us", us r.Replay.node_pub 0.5, "us");
      ("node.fwd_ratio", per c.Replay.fwd_subs c.Replay.subs, "ratio");
      ("store.add_us", us r.Replay.store_add 0.5, "us");
      ("store.add_us_p99", us r.Replay.store_add 0.99, "us");
      ("store.remove_us", us r.Replay.store_remove 0.5, "us");
      ("store.rechecks_per_unsub", per c.Replay.rechecks c.Replay.store_unsubs, "count");
      ("store.match_us", us r.Replay.store_match 0.5, "us");
      ("store.covered_scans_per_pub", per c.Replay.covered_scans c.Replay.pubs, "count");
      ("matcher.hits_per_pub", per c.Replay.inspections c.Replay.pubs, "count");
      ("matcher.mutate_us", us r.Replay.mutate 0.5, "us");
      ("engine.check_us", us r.Replay.engine 0.5, "us");
      ("engine.check_us_p99", us r.Replay.engine 0.99, "us");
      ("engine.k_pruned", per c.Replay.k_pruned c.Replay.checks, "count");
      ("engine.k_reduced", per c.Replay.k_reduced c.Replay.checks, "count");
      ("engine.fast_decisions", per c.Replay.fast c.Replay.checks, "share");
      ("engine.rspc_runs", per c.Replay.rspc c.Replay.checks, "share");
      ("engine.rspc_trials", per c.Replay.trials c.Replay.checks, "count");
      ("engine.delta_sum", c.Replay.delta_sum, "prob");
      ("wal.bytes_per_op", per c.Replay.wal_bytes c.Replay.mutations, "B");
      ("wal.append_us", us r.Replay.wal 0.5, "us");
    ] )

let main args =
  let ticks0 = Steal.ticks () in
  let run = run_workload args in
  let steal = Steal.share ticks0 (Steal.ticks ()) in
  let m = run.main in
  let sub = D.values m.D.sub_ms
  and unsub = D.values m.D.unsub_ms
  and pub = D.values m.D.pub_ms
  and late = Vec.to_array m.D.late_ms in
  let totals =
    List.map
      (fun k ->
        let a = ref 0 and f = ref 0 in
        Vec.iter
          (fun t ->
            let c = D.count t k in
            a := !a + c.D.attempted;
            f := !f + c.D.failed)
          run.sessions;
        (k, !a, !f))
      D.kinds
  in
  let attempted = List.fold_left (fun acc (_, a, _) -> acc + a) 0 totals in
  let failed = List.fold_left (fun acc (_, _, f) -> acc + f) 0 totals in
  let all v = D.clean_values v ~from:0 ~upto:(Vec.length v) in
  let clean_sub = all m.D.sub_ms and clean_unsub = all m.D.unsub_ms and clean_pub = all m.D.pub_ms in
  let open Report in
  let extras =
    [ ("pub_p99_ms", Num (pct clean_pub 0.99)) ]
    @ (if Array.length clean_sub >= 1000 then [ ("sub_p99_ms", Num (pct clean_sub 0.99)) ]
       else [])
    @ (if args.workload = "admit" then
         [ ("sub_per_s", Num (float (Array.length sub) /. run.ctl_busy_s)) ]
       else [])
    @
    if args.workload = "notify" then [ ("pub_capacity_per_s", Num run.capacity) ] else []
  in
  let rs = Array.to_list (Vec.to_array run.round_stats) in
  let calm = calm_rounds rs in
  let calm_sub = pooled calm m.D.sub_ms (fun r -> r.subs)
  and calm_unsub = pooled calm m.D.unsub_ms (fun r -> r.unsubs) in
  let n a = Num (float (Array.length a)) in
  let report =
    Obj
      [
        ( "host",
          Obj
            [
              ("cores", Num (float (cores ())));
              ("ocaml", Str Sys.ocaml_version);
              ("commit", Str (commit ()));
              ("lib_digest", Str (source_digest ()));
              ("steal_share", Num steal);
              ("stolen_windows", Num (Steal.stolen_share ()));
            ] );
        ("workload", Str args.workload);
        ("seed", Num (float args.seed));
        ("seconds", Num args.seconds);
        ( "ops",
          Obj
            (List.map
               (fun (k, a, f) ->
                 (D.kind_name k, Obj [ ("attempted", Num (float a)); ("failed", Num (float f)) ]))
               totals) );
        ( "samples",
          Obj
            [
              samples_obj "sub_ms" sub;
              samples_obj "unsub_ms" unsub;
              samples_obj "pub_ms" pub;
              samples_obj "setup_s" (Vec.to_array run.setup_s);
            ] );
        ( "clean_samples",
          Obj
            [
              ("sub_ms", n clean_sub);
              ("unsub_ms", n clean_unsub);
              ("pub_ms", n clean_pub);
              ("calm_rounds", Num (float (List.length calm)));
              ("calm_sub_ms", n calm_sub);
              ("calm_unsub_ms", n calm_unsub);
            ] );
        samples_obj "generator_late_ms" late;
        ("unmatched_pubs", Num (float m.D.unmatched));
        ("cover_checked", Num (float run.cover_checked));
        ("brokers", Num (float (Vec.length run.sessions)));
        ("extra", Obj extras);
      ]
  in
  let e2e =
    [
      ("setup_s", run.fixed_setup_s, "s");
      ("sub_p50_ms", median calm_sub, "ms");
      ("unsub_p50_ms", median calm_unsub, "ms");
      ("pub_p50_ms", over_rounds rs (fun r -> r.pub_p50), "ms");
      ("pub_p90_ms", over_rounds rs (fun r -> r.pub_p90), "ms");
      ("rss_mb", median (Vec.to_array run.rss_mb), "MiB");
      ("fwd_subs", float run.fwd_subs, "count");
    ]
  in
  let traced, metrics, parity =
    if args.trace then begin
      let r, metrics = per_layer run ~sub_p50_ms:(median sub) ~pub_p50_ms:(median pub) in
      let span_cost = Trace.cost_ns () in
      ( [
          ( "trace",
            Obj
              [
                ("replay_s", Num r.Replay.wall_s);
                ("brokers_replayed", Num (float r.Replay.sessions));
                ("spans", Num (float r.Replay.tr.Trace.spans));
                ("span_cost_ns", Num span_cost);
                ( "overhead_share",
                  Num (float r.Replay.tr.Trace.spans *. span_cost *. 1e-9 /. r.Replay.wall_s) );
                ("parity", Bool r.Replay.c.Replay.parity_ok);
                ("parity_note", Str r.Replay.c.Replay.parity_note);
              ] );
        ],
        metrics,
        r.Replay.c.Replay.parity_ok )
    end
    else ([], e2e, true)
  in
  let report = match report with Obj kvs -> Obj (kvs @ traced) | j -> j in
  print_endline (to_string (Obj [ ("report", report) ]));
  let complete = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (complete && parity));
            ("attempted", Num (float attempted));
            ("failed", Num (float failed));
            ("metrics", Obj (List.map metric metrics));
          ]))

let () =
  match Array.to_list Sys.argv with
  | _ :: "broker" :: dir :: seed :: _ -> Broker.serve ~dir ~seed:(int_of_string seed)
  | _ :: rest -> (
      match parse rest with
      | exception Failure msg ->
          prerr_endline ("perfbench: " ^ msg);
          prerr_endline usage;
          exit 2
      | args -> (
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          (* Stop the broker and remove the work directory on the way out. *)
          List.iter
            (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
            [ Sys.sigterm; Sys.sigint ];
          match main args with
          | () -> ()
          | exception D.Broken msg ->
              prerr_endline ("perfbench: " ^ msg);
              exit 1))
  | [] -> exit 2
