(* Everything the benchmark feeds the broker, drawn from the workload
   seed: the paper's §6.4 subscription stream and publications half
   drawn inside a live subscription, half uniform over the domain. The
   live table is the load generator's own model of what the broker
   holds; the reference checks compute against it, never against the
   program under test. *)

open Probsub_core

let arity = 8
let domain = Probsub_workload.Scenario.domain_width

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A growable vector; the benchmark's logs and samples. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (max 64 (2 * v.n)) x in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let to_array v = Array.sub v.a 0 v.n
  let iter f v = for i = 0 to v.n - 1 do f v.a.(i) done
end

type op =
  | Sub of { key : int; sub : Subscription.t }
  | Unsub of { key : int }
  | Pub of { id : int; pub : Publication.t }

let payload = function
  | Sub { key; sub } -> Probsub_broker.Message.Subscribe { key; sub; epoch = 0 }
  | Unsub { key } -> Probsub_broker.Message.Unsubscribe { key }
  | Pub { id; pub } -> Probsub_broker.Message.Publish { id; pub }

let next_sub rng =
  match Probsub_workload.Scenario.comparison_stream rng ~m:arity ~n:1 with
  | [ s ] -> s
  | _ -> invalid_arg "Inputs.next_sub"

(* A point of [s] inside the domain: unconstrained attributes draw
   uniformly over the domain, constrained ones inside their range. *)
let point_in rng s =
  Array.init arity (fun j ->
      let r = Subscription.range s j in
      let lo = max 0 (Interval.lo r) and hi = min (domain - 1) (Interval.hi r) in
      Prng.int_in rng ~lo ~hi)

let uniform_point rng = Array.init arity (fun _ -> Prng.int rng domain)

(* The live table: key -> subscription, with an array of keys for
   uniform random picks (swap-remove keeps it dense). Its order depends
   only on the operations applied, so picks are seed-deterministic. *)
module Table = struct
  type t = {
    subs : (int, Subscription.t) Hashtbl.t;
    slot : (int, int) Hashtbl.t;
    keys : int Vec.t;
  }

  let create () =
    { subs = Hashtbl.create 4096; slot = Hashtbl.create 4096; keys = Vec.create () }

  let size t = Vec.length t.keys
  let mem t key = Hashtbl.mem t.subs key
  let find t key = Hashtbl.find_opt t.subs key

  let add t key sub =
    Hashtbl.replace t.subs key sub;
    Hashtbl.replace t.slot key (Vec.length t.keys);
    Vec.push t.keys key

  let remove t key =
    match Hashtbl.find_opt t.slot key with
    | None -> ()
    | Some i ->
        let last = t.keys.Vec.n - 1 in
        let moved = t.keys.Vec.a.(last) in
        t.keys.Vec.a.(i) <- moved;
        Hashtbl.replace t.slot moved i;
        t.keys.Vec.n <- last;
        Hashtbl.remove t.slot key;
        Hashtbl.remove t.subs key

  let pick t rng = Vec.get t.keys (Prng.int rng (size t))
  let iter f t = Vec.iter (fun k -> f k (Hashtbl.find t.subs k)) t.keys

  (* Brute force: every live key whose subscription matches, ascending. *)
  let matching t pub =
    let acc = ref [] in
    Vec.iter
      (fun k -> if Publication.matches (Hashtbl.find t.subs k) pub then acc := k :: !acc)
      t.keys;
    let a = Array.of_list !acc in
    Array.sort Int.compare a;
    a
end

let publication rng table =
  if Table.size table > 0 && Prng.bool rng then
    let s = Option.get (Table.find table (Table.pick table rng)) in
    Publication.point (point_in rng s)
  else Publication.point (uniform_point rng)

(* An order-independent digest of a key set, so the traced replay can
   compare delivery sets with the socket run without keeping them. *)
let mix k =
  let h = (k * 0x9E3779B1) land 0x3FFFFFFF in
  h lxor (h lsr 15)

let digest_add (n, h) k = (n + 1, (h + mix k) land max_int)
let digest_empty = (0, 0)
