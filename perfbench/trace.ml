(* Spans for the traced run. A span is recorded around one call into a
   layer; spans nest (a journal append inside a store add), and a
   layer's self time is its span's duration minus the time its child
   spans cover. Spans stay in memory; [write] puts the per-layer
   summary in a file when the run ends. *)

type layer = {
  name : string;
  keep : bool;  (* keep every self time, for percentiles *)
  selfs : float Inputs.Vec.t;  (* ns *)
  mutable count : int;
  mutable total_ns : float;
  mutable self_ns : float;
}

type frame = { layer : layer; start : int64; mutable child : int64 }
type t = { mutable stack : frame list; mutable spans : int; mutable layers : layer list }

let create () = { stack = []; spans = 0; layers = [] }

let layer t ?(keep = true) name =
  let l = { name; keep; selfs = Inputs.Vec.create (); count = 0; total_ns = 0.0; self_ns = 0.0 } in
  t.layers <- l :: t.layers;
  l

let span t l f =
  let fr = { layer = l; start = Monotonic_clock.now (); child = 0L } in
  t.stack <- fr :: t.stack;
  let r = f () in
  let dur = Int64.sub (Monotonic_clock.now ()) fr.start in
  (match t.stack with
  | _ :: (parent :: _ as rest) ->
      parent.child <- Int64.add parent.child dur;
      t.stack <- rest
  | _ :: [] | [] -> t.stack <- []);
  let self = Int64.to_float (Int64.sub dur fr.child) in
  if l.keep then Inputs.Vec.push l.selfs self;
  l.count <- l.count + 1;
  l.total_ns <- l.total_ns +. Int64.to_float dur;
  l.self_ns <- l.self_ns +. self;
  t.spans <- t.spans + 1;
  r

(* Median and p99 self time in microseconds. *)
let self_us l p = Report.pct (Inputs.Vec.to_array l.selfs) p /. 1e3
let mean_self_ns l = if l.count = 0 then nan else l.self_ns /. float l.count

(* What one span costs the run: the clock reads and bookkeeping around
   an empty body. *)
let cost_ns () =
  let t = create () in
  let l = layer t ~keep:false "calibrate" in
  let n = 200_000 in
  let t0 = Monotonic_clock.now () in
  for _ = 1 to n do
    span t l ignore
  done;
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. float n

let write t path =
  let oc = open_out path in
  Printf.fprintf oc "layer\tspans\ttotal_ns\tself_ns\tself_p50_ns\tself_p99_ns\n";
  List.iter
    (fun l ->
      let pct p = if l.keep && l.count > 0 then Printf.sprintf "%.0f" (self_us l p *. 1e3) else "-" in
      Printf.fprintf oc "%s\t%d\t%.0f\t%.0f\t%s\t%s\n" l.name l.count l.total_ns l.self_ns
        (pct 0.5) (pct 0.99))
    (List.rev t.layers);
  close_out oc
