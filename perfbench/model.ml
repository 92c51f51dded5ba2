(* The harness's own model of the workload: the stock hierarchy of the
   paper's Fig. 1, events that are a pure function of (seed, seq),
   subscriptions whose filters exist twice — once as the program's
   filter expression, once as an OCaml predicate — and the checker
   that holds every delivery against the expectation computed from the
   predicates and the harness's own subtype table. Nothing here asks
   the program (Registry, Rfilter, Factored) which subscriptions an
   event should reach. *)

module Registry = Tpbs_types.Registry
module Vtype = Tpbs_types.Vtype
module Value = Tpbs_serial.Value
module Obvent = Tpbs_obvent.Obvent
module Expr = Tpbs_filter.Expr
module Fspec = Tpbs_core.Fspec

let declare reg =
  Registry.declare_class reg ~name:"StockObvent" ~implements:[ "Obvent" ]
    ~attrs:
      [ ("company", Vtype.Tstring); ("price", Vtype.Tfloat);
        ("amount", Vtype.Tint); ("seq", Vtype.Tint);
        ("payload", Vtype.Tstring) ]
    ();
  Registry.declare_class reg ~name:"StockQuote" ~extends:"StockObvent" ();
  Registry.declare_class reg ~name:"StockRequest" ~extends:"StockObvent" ();
  Registry.declare_class reg ~name:"SpotPrice" ~extends:"StockRequest" ();
  Registry.declare_class reg ~name:"MarketPrice" ~extends:"StockRequest" ();
  (* published once per TCP set-up to wait out the broker's warmup;
     nobody subscribes to it *)
  Registry.declare_class reg ~name:"Probe" ~implements:[ "Obvent" ]
    ~attrs:[ ("seq", Vtype.Tint) ]
    ()

let registry () =
  let reg = Registry.create () in
  declare reg;
  reg

(* The subtype table, written out by hand. *)
let ancestors = function
  | "StockQuote" -> [ "StockQuote"; "StockObvent" ]
  | "SpotPrice" -> [ "SpotPrice"; "StockRequest"; "StockObvent" ]
  | "MarketPrice" -> [ "MarketPrice"; "StockRequest"; "StockObvent" ]
  | "StockRequest" -> [ "StockRequest"; "StockObvent" ]
  | "StockObvent" -> [ "StockObvent" ]
  | cls -> invalid_arg ("Model.ancestors: " ^ cls)

let is_subtype cls param = List.mem param (ancestors cls)

(* --- events ------------------------------------------------------------ *)

let companies =
  [| "Telco Mobiles"; "Telco Fixnet"; "Telco Cloud"; "Acme Corp";
     "Acme Retail"; "Banka"; "Octopus"; "Initech"; "Globex"; "Umbrella";
     "Stark Industries"; "Wayne Enterprises"; "Tyrell"; "Cyberdyne";
     "Wonka Industries"; "Gringotts" |]

type shape = {
  mixed : bool;  (* quotes and requests (60/20/20), or quotes only *)
  payload_len : int;
}

let hash ~seed seq = Harness.mix seed seq

let cls_of shape h =
  if not shape.mixed then "StockQuote"
  else
    match (h land 1023) mod 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 -> "StockQuote"
    | 6 | 7 -> "SpotPrice"
    | _ -> "MarketPrice"

let company_of h = companies.((h lsr 10) land 15)
let price_of h = float_of_int ((h lsr 14) mod 20_000) /. 100.
let amount_of h = 1 + ((h lsr 30) mod 1000)

(* Payload bytes: word [i] of the payload of the event with hash [h] is
   [mix h i]; a tail shorter than a word takes the low byte of the next
   word. Generated and checked a word at a time, without allocating. *)
let payload ~h len =
  let b = Bytes.create len in
  let words = len / 8 in
  for i = 0 to words - 1 do
    Bytes.set_int64_le b (i * 8) (Int64.of_int (Harness.mix h i))
  done;
  for j = words * 8 to len - 1 do
    Bytes.unsafe_set b j (Char.unsafe_chr (Harness.mix h (words + j) land 255))
  done;
  Bytes.unsafe_to_string b

(* Byte-for-byte comparison against the regenerated payload, without
   building it. [flip] corrupts the expectation (fault mode). *)
let payload_ok ~h ~flip len s =
  String.length s = len
  &&
  let words = len / 8 in
  let ok = ref true and i = ref 0 in
  while !ok && !i < words do
    let want = Harness.mix h !i in
    let want = if flip && !i = 0 then want lxor 1 else want in
    if Int64.to_int (String.get_int64_le s (!i * 8)) <> want then ok := false;
    incr i
  done;
  let j = ref (words * 8) in
  while !ok && !j < len do
    if Char.code (String.unsafe_get s !j) <> Harness.mix h (words + !j) land 255 then
      ok := false;
    incr j
  done;
  !ok && not (flip && words = 0)

let obvent reg shape ~seed seq =
  let h = hash ~seed seq in
  Obvent.make reg (cls_of shape h)
    [ ("company", Value.Str (company_of h)); ("price", Value.Float (price_of h));
      ("amount", Value.Int (amount_of h)); ("seq", Value.Int seq);
      ("payload", Value.Str (payload ~h shape.payload_len)) ]

(* --- subscriptions ------------------------------------------------------ *)

type atom =
  | Price_lt of float
  | Company_eq of string
  | Company_has of string
  | Amount_gt of int

type spec = { param : string; atoms : atom list }  (* [] = type only *)

let expr_of_atom = function
  | Price_lt p -> Expr.(getter [ "getPrice" ] <. float p)
  | Company_eq c -> Expr.(Binop (Eq, getter [ "getCompany" ], str c))
  | Company_has s -> Expr.(Binop (Contains, getter [ "getCompany" ], str s))
  | Amount_gt n -> Expr.(getter [ "getAmount" ] >. int n)

let fspec spec =
  match spec.atoms with
  | [] -> Fspec.accept_all
  | a :: rest ->
      Fspec.tree
        (List.fold_left
           (fun e a -> Expr.(e &&& expr_of_atom a))
           (expr_of_atom a) rest)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec same i j = j = m || (s.[i + j] = sub.[j] && same i (j + 1)) in
  let rec at i = i + m <= n && (same i 0 || at (i + 1)) in
  at 0

let holds h = function
  | Price_lt p -> price_of h < p
  | Company_eq c -> String.equal (company_of h) c
  | Company_has s -> contains (company_of h) s
  | Amount_gt n -> amount_of h > n

let matches shape spec h =
  let rec all = function [] -> true | a :: rest -> holds h a && all rest in
  is_subtype (cls_of shape h) spec.param && all spec.atoms

(* ~64 subscriptions of one session over the hierarchy: type-only ones
   at two levels, the rest content filters of one or two atoms on the
   quote and top levels (a few on SpotPrice, covered by the type-only
   SpotPrice subscription). About four subscriptions match a publish. *)
let population n =
  let fixed =
    [ { param = "StockRequest"; atoms = [] };
      { param = "SpotPrice"; atoms = [] };
      { param = "MarketPrice"; atoms = [] } ]
  in
  let atom h =
    match h land 3 with
    | 0 -> Price_lt (float_of_int (10 + ((h lsr 2) mod 60)))
    | 1 -> Company_eq companies.((h lsr 2) land 15)
    | 2 -> Company_has (String.sub companies.((h lsr 2) land 15) 0 4)
    | _ -> Amount_gt (600 + ((h lsr 2) mod 400))
  in
  let content i =
    let h = Harness.mix 7919 i in
    let param =
      match h land 7 with
      | 0 | 1 | 2 -> "StockObvent"
      | 3 | 4 | 5 | 6 -> "StockQuote"
      | _ -> "SpotPrice"
    in
    let a1 = atom (h lsr 3) in
    let atoms =
      if (h lsr 40) land 1 = 0 then [ a1 ] else [ a1; atom (h lsr 20) ]
    in
    { param; atoms }
  in
  fixed @ List.init (n - List.length fixed) content

(* --- the checker -------------------------------------------------------- *)

(* Per subscription, the seqs it must still receive, oldest first: a
   delivery must be the head (exactly once, in per-origin order) and
   carry the regenerated content. *)
module Expect = struct
  type t = { mutable q : int array; mutable hd : int; mutable tl : int }

  let create () = { q = Array.make 64 0; hd = 0; tl = 0 }
  let is_empty t = t.hd = t.tl
  let length t = t.tl - t.hd

  let push t v =
    if t.tl = Array.length t.q then begin
      let live = t.tl - t.hd in
      let q = if live * 2 > Array.length t.q then Array.make (2 * Array.length t.q) 0 else t.q in
      Array.blit t.q t.hd q 0 live;
      t.q <- q;
      t.hd <- 0;
      t.tl <- live
    end;
    Array.unsafe_set t.q t.tl v;
    t.tl <- t.tl + 1
end

type fault = No_fault | Drop | Dup | Corrupt | Skip

(* The fault fires on this delivery (or store update), counted from the
   start of the run: early enough for every workload to reach it. *)
let fault_at = 500

type checker = {
  shape : shape;
  seed : int;
  specs : spec array;
  expect : Expect.t array;
  mutable expected : int;  (* deliveries owed, over the whole run *)
  mutable delivered : int;  (* deliveries seen, good or bad *)
  mutable failed : int;
  fault : fault;
  mutable observed : int;
  (* open-loop latency: due time of each publish since [due_base] *)
  mutable due_base : int;
  mutable due : int array;
  mutable latency_on : bool;
  latencies : Harness.Samples.t;
}

let checker ~seed ~fault shape specs =
  {
    shape;
    seed;
    specs = Array.of_list specs;
    expect = Array.init (List.length specs) (fun _ -> Expect.create ());
    expected = 0;
    delivered = 0;
    failed = 0;
    fault;
    observed = 0;
    due_base = 0;
    due = [||];
    latency_on = false;
    latencies = Harness.Samples.create 1024;
  }

(* Record what publish [seq] owes, from the predicates alone. *)
let published c seq =
  let h = hash ~seed:c.seed seq in
  for i = 0 to Array.length c.specs - 1 do
    if matches c.shape c.specs.(i) h then begin
      Expect.push c.expect.(i) seq;
      c.expected <- c.expected + 1
    end
  done

(* [Obvent.get] without its option allocation, so checking a delivery
   allocates nothing. *)
let field o name =
  let rec go = function
    | (k, v) :: rest -> if String.equal k name then v else go rest
    | [] -> Value.Null
  in
  go (Obvent.fields o)

let content_ok c ~flip seq o =
  let h = hash ~seed:c.seed seq in
  String.equal (Obvent.cls o) (cls_of c.shape h)
  && (match field o "company" with
     | Value.Str s -> String.equal s (company_of h)
     | _ -> false)
  && (match field o "price" with
     | Value.Float p -> Float.equal p (price_of h)
     | _ -> false)
  && (match field o "amount" with
     | Value.Int a -> a = amount_of h
     | _ -> false)
  &&
  match field o "payload" with
  | Value.Str s -> payload_ok ~h ~flip c.shape.payload_len s
  | _ -> false

let observe c i ~flip o =
  c.delivered <- c.delivered + 1;
  match field o "seq" with
  | Value.Int seq ->
      let e = c.expect.(i) in
      (* anything owed before [seq] was skipped: missing *)
      while (not (Expect.is_empty e)) && e.Expect.q.(e.Expect.hd) < seq do
        e.Expect.hd <- e.Expect.hd + 1;
        c.failed <- c.failed + 1
      done;
      if (not (Expect.is_empty e)) && e.Expect.q.(e.Expect.hd) = seq then begin
        e.Expect.hd <- e.Expect.hd + 1;
        if not (content_ok c ~flip seq o) then c.failed <- c.failed + 1;
        if c.latency_on && seq >= c.due_base then
          Harness.Samples.add c.latencies
            (Harness.now_ns () - c.due.(seq - c.due_base))
      end
      else (* duplicate, reordered or never owed *)
        c.failed <- c.failed + 1
  | _ -> c.failed <- c.failed + 1

(* The handler of subscription [i]; the fault mode tampers with one
   observation here, never with the program. *)
let handler c i o =
  Harness.enter ();
  c.observed <- c.observed + 1;
  (if c.observed = fault_at then
     match c.fault with
     | Drop -> c.delivered <- c.delivered + 1
     | Dup ->
         observe c i ~flip:false o;
         observe c i ~flip:false o
     | Corrupt -> observe c i ~flip:true o
     | No_fault | Skip -> observe c i ~flip:false o
   else observe c i ~flip:false o);
  Harness.leave Harness.harness

(* The next input: publish [seq]'s obvent, with what it owes recorded
   first. *)
let input c reg ~seq =
  Harness.enter ();
  let ob = obvent reg c.shape ~seed:c.seed seq in
  published c seq;
  Harness.leave Harness.harness;
  ob

let all_delivered c = Array.for_all Expect.is_empty c.expect

(* Close the books: whatever is still owed is missing. *)
let finish c =
  Array.iter
    (fun e ->
      c.failed <- c.failed + Expect.length e;
      e.Expect.hd <- e.Expect.tl)
    c.expect
