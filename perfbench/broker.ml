(* The broker under test: one Broker_server process, started by
   re-executing this binary in its [broker] mode so that its memory
   holds nothing of the load generator's, and stopped with SIGKILL. It
   runs under the normal scheduling policy (`chrt -o 0`), although the
   load generator that starts it runs under SCHED_IDLE (see run.sh). *)

open Probsub_core
module Server = Probsub_server.Broker_server

let broker_id = 0
let link_id = 1

(* The paper's group policy, as `probsub serve --policy group`. Every
   lease, refresh, retransmission and replication period is far longer
   than a run, so no wall-clock timer adds work to the broker. *)
let config ~dir ~seed =
  let long = 1e6 in
  Server.config ~id:broker_id ~neighbors:[ link_id ] ~sock_dir:dir
    ~wal_dir:(Some (Filename.concat dir "wal"))
    ~policy:(Subscription_store.Group_policy (Engine.config ~delta:1e-6 ()))
    ~lease_ttl:(2.0 *. long) ~refresh_interval:long ~rto:long
    ~repl_hb_interval:long ~repl_hb_timeout:(2.0 *. long) ~arity:Inputs.arity
    ~seed ()

(* Entry point of the child process. *)
let serve ~dir ~seed = Server.run (config ~dir ~seed)

(* Brokers still running, stopped on any exit of the benchmark. *)
let live = ref []

let stop pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter stop !live)

let spawn ~dir ~seed =
  let pid =
    Unix.create_process "chrt"
      [| "chrt"; "-o"; "0"; Sys.executable_name; "broker"; dir; string_of_int seed |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  pid

let read_file path =
  match open_in path with
  | ic ->
      let b = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Buffer.contents b
  | exception Sys_error _ -> ""

(* Broker CPU (user + system) in seconds, from /proc/<pid>/stat. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  match String.rindex_opt s ')' with
  | None -> nan
  | Some i -> (
      let fields =
        String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))
      in
      (* Fields after the command name start at field 3 (state);
         utime and stime are fields 14 and 15. *)
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some k ->
          float_of_string (u ^ ".") +. float_of_string (k ^ ".")
          |> fun ticks -> ticks /. 100.0
      | _ -> nan)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let s =
    String.map (fun c -> if c = '\t' then ' ' else c)
      (read_file (Printf.sprintf "/proc/%d/status" pid))
  in
  let lines = String.split_on_char '\n' s in
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines with
  | None -> nan
  | Some l -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' (String.sub l 6 (String.length l - 6))) with
      | kb :: _ -> float_of_string (String.trim kb) /. 1024.0
      | [] -> nan)
