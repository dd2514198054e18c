(* The host is shared: now and then the hypervisor runs other guests on
   this guest's CPUs, and the guest counts that time as steal (the
   eighth field of a /proc/stat cpu line, in ticks of 10 ms). A
   latency sample that lived through stolen time measures the host,
   not the broker. Time is cut into windows of [window_s]; a sample is
   clean when no steal tick fell in any window it spanned. In two notify
   runs with 10-13% of windows stolen, publication p99 was 1.05 and
   1.33 ms over clean samples against 2.97 and 3.11 ms over all; the
   medians moved by 1-5%. *)

open Inputs

let window_s = 0.1

(* The /proc/stat line to read: the one CPU this process may run on
   (run.sh pins the benchmark to one), else the whole guest. *)
let cpu_label =
  let status = String.split_on_char '\n' (Broker.read_file "/proc/self/status") in
  match List.find_opt (String.starts_with ~prefix:"Cpus_allowed_list:") status with
  | Some l -> (
      let v = String.trim (String.sub l 18 (String.length l - 18)) in
      match int_of_string_opt v with Some c -> "cpu" ^ string_of_int c | None -> "cpu")
  | None -> "cpu"

(* CPU ticks of [cpu_label] and the ticks stolen from it; nan when
   /proc/stat cannot be read. *)
let ticks () =
  let fields l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  match
    List.find_opt
      (fun l -> match fields l with c :: _ -> c = cpu_label | [] -> false)
      (String.split_on_char '\n' (Broker.read_file "/proc/stat"))
  with
  | Some line -> (
      match fields line with
      | _ :: fields ->
          let v = List.map float_of_string fields in
          (List.fold_left ( +. ) 0.0 v, Option.value ~default:0.0 (List.nth_opt v 7))
      | [] -> (nan, nan))
  | None -> (nan, nan)

let share (total0, steal0) (total1, steal1) = (steal1 -. steal0) /. (total1 -. total0)

let closed : bool Vec.t = Vec.create ()  (* per closed window: was any tick stolen *)
let last = ref nan
let window_start = ref neg_infinity

(* The open window. *)
let current () = Vec.length closed

(* The window that held time [t], a moment ago: the open one or the one
   before it. *)
let window_at t = if t >= !window_start then current () else max 0 (current () - 1)

(* End the open window now. *)
let close () =
  let s = snd (ticks ()) in
  if not (Float.is_nan !last) then Vec.push closed (s > !last);
  last := s;
  window_start := now ()

(* Called from the load generator's event loop. *)
let tick () = if now () >= !window_start +. window_s then close ()

(* Whether windows [w0] to [w1] are closed and none had steal. *)
let clean w0 w1 =
  let rec go w = w > w1 || ((not (Vec.get closed w)) && go (w + 1)) in
  w1 < Vec.length closed && go w0

(* Share of the closed windows [w0] to [w1 - 1] that had steal. *)
let stolen_in w0 w1 =
  let n = ref 0 in
  for w = w0 to w1 - 1 do
    if Vec.get closed w then incr n
  done;
  float !n /. float (max 1 (w1 - w0))

(* Share of closed windows that had steal. *)
let stolen_share () = stolen_in 0 (Vec.length closed)
