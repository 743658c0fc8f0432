(* The delta-API battery: the explicit mutation surface of Backend
   (apply / subscribe / generation-from-log) on every substrate, the
   incrementally maintained Datalog views, the planner's per-store
   statistics, and the online coverage path — a
   single-tuple add/remove on a non-target relation must patch the
   coverage structure without a full refresh, and random interleaved
   mutation streams must leave the incremental structure bit-for-bit
   equal to a from-scratch rebuild on every backend. *)

open Castor_relational
open Castor_logic
open Castor_ilp
open Helpers
module Obs = Castor_obs.Obs
module Examples = Castor_ilp.Examples

let specs = [ Backend.Flat; Backend.Sharded 3; Backend.Columnar ]

let itu a b = Tuple.of_list [ Value.int a; Value.int b ]

(* ---------------- substrate delta units ---------------------------- *)

let substrate_case spec =
  tc
    (Fmt.str "%s: apply logs effective deltas and notifies once"
       (Backend.spec_to_string spec))
    (fun () ->
      let b = Backend.create spec [ ("p", 2) ] in
      let seen = ref [] in
      Backend.subscribe b (fun ds -> seen := !seen @ [ ds ]);
      check Alcotest.int "fresh store at generation 0" 0 (Backend.generation b);
      Backend.apply b [] ;
      check Alcotest.int "empty batch is a no-op" 0 (Backend.generation b);
      check Alcotest.int "empty batch not delivered" 0 (List.length !seen);
      (* duplicate add and absent remove are ineffective: dropped from
         the log and from the notified sub-batch *)
      Backend.apply b
        [
          Delta.add "p" (itu 1 2);
          Delta.add "p" (itu 1 2);
          Delta.remove "p" (itu 3 4);
          Delta.add "p" (itu 5 6);
        ];
      check Alcotest.int "generation = effective deltas" 2
        (Backend.generation b);
      check Alcotest.int "one notification per batch" 1 (List.length !seen);
      check Alcotest.int "only the effective sub-batch delivered" 2
        (List.length (List.hd !seen));
      let module B = (val b : Backend.S) in
      (* the singleton forms are [apply] of one delta *)
      check Alcotest.bool "add of a new tuple" true (B.add "p" (itu 7 8));
      check Alcotest.bool "re-add is ineffective" false (B.add "p" (itu 7 8));
      check Alcotest.bool "remove of a stored tuple" true
        (B.remove "p" (itu 1 2));
      check Alcotest.bool "re-remove is ineffective" false
        (B.remove "p" (itu 1 2));
      check Alcotest.int "only effective singletons logged" 4
        (Backend.generation b);
      check Alcotest.int "one notification per effective singleton" 3
        (List.length !seen);
      check Alcotest.bool "store state reflects the log" true
        (B.mem "p" (itu 5 6) && B.mem "p" (itu 7 8)
        && not (B.mem "p" (itu 1 2))))

let capabilities_suite =
  [
    tc "capabilities describe each substrate honestly" (fun () ->
        let caps spec = Backend.capabilities (Backend.create spec [ ("p", 2) ]) in
        let open Backend in
        check Alcotest.bool "flat: subscription only" true
          (caps Flat = { pushdown = false; partitioned = false; subscription = true });
        check Alcotest.bool "sharded: partitioned + subscription" true
          (caps (Sharded 4)
          = { pushdown = false; partitioned = true; subscription = true });
        check Alcotest.bool "columnar: pushdown + subscription" true
          (caps Columnar
          = { pushdown = true; partitioned = false; subscription = true }));
  ]

let substrate_suite = List.map substrate_case specs @ capabilities_suite

(* ---------------- incrementally maintained Datalog views ------------ *)

let at = Schema.attribute

let edge_schema =
  Schema.make [ Schema.relation "edge" [ at ~domain:"v" "x"; at ~domain:"v" "y" ] ]

let c i = Value.str (Printf.sprintf "c%d" i)

let etu i j = Tuple.of_list [ c i; c j ]

(* path(X,Y) :- edge(X,Y).  path(X,Z) :- edge(X,Y), path(Y,Z). *)
let path_program =
  let va x = Term.Var x in
  [
    Clause.make (Atom.make "path" [ va "X"; va "Y" ])
      [ Atom.make "edge" [ va "X"; va "Y" ] ];
    Clause.make
      (Atom.make "path" [ va "X"; va "Z" ])
      [ Atom.make "edge" [ va "X"; va "Y" ]; Atom.make "path" [ va "Y"; va "Z" ] ];
  ]

let path_set v =
  Datalog.view_facts v "path" |> List.map Atom.to_string |> List.sort compare

let expect_paths pairs =
  List.map (fun (i, j) -> Atom.to_string (Atom.of_tuple "path" (etu i j))) pairs
  |> List.sort compare

let view_suite =
  [
    tc "a watched view absorbs insertions semi-naively" (fun () ->
        let inst = Instance.create edge_schema in
        Instance.add inst "edge" (etu 0 1);
        Instance.add inst "edge" (etu 1 2);
        let v = Datalog.materialize inst path_program in
        check Alcotest.(list string) "initial fixpoint"
          (expect_paths [ (0, 1); (1, 2); (0, 2) ])
          (path_set v);
        let b = Backend.of_instance inst in
        Datalog.watch v b;
        let rec0 = Obs.Counter.value Datalog.c_view_recomputes in
        Backend.apply b [ Delta.add "edge" (etu 2 3) ];
        check Alcotest.(list string) "extended with the new edge's closure"
          (expect_paths [ (0, 1); (1, 2); (0, 2); (2, 3); (1, 3); (0, 3) ])
          (path_set v);
        check Alcotest.int "adds-only maintenance never recomputes" rec0
          (Obs.Counter.value Datalog.c_view_recomputes));
    tc "a deletion falls back to a full recomputation" (fun () ->
        let inst = Instance.create edge_schema in
        Instance.add inst "edge" (etu 0 1);
        Instance.add inst "edge" (etu 1 2);
        let v = Datalog.materialize inst path_program in
        let b = Backend.of_instance inst in
        Datalog.watch v b;
        let rec0 = Obs.Counter.value Datalog.c_view_recomputes in
        Backend.apply b [ Delta.remove "edge" (etu 0 1); Delta.add "edge" (etu 2 3) ];
        check Alcotest.(list string) "retracted paths are gone"
          (expect_paths [ (1, 2); (2, 3); (1, 3) ])
          (path_set v);
        check Alcotest.int "one recompute counted" (rec0 + 1)
          (Obs.Counter.value Datalog.c_view_recomputes));
  ]

(* ---------------- the pq world (mirrors test_batch) ----------------- *)

let pq_schema =
  Schema.make
    [
      Schema.relation "p" [ at ~domain:"d" "x"; at ~domain:"d" "y" ];
      Schema.relation "q" [ at ~domain:"d" "x"; at ~domain:"d" "y" ];
    ]

let random_problem seed =
  let rng = Random.State.make [| seed |] in
  let inst = Instance.create pq_schema in
  let n_tuples = 10 + Random.State.int rng 20 in
  for _ = 1 to n_tuples do
    let rel = if Random.State.bool rng then "p" else "q" in
    Instance.add inst rel
      (Tuple.of_list
         [ c (Random.State.int rng 8); c (Random.State.int rng 8) ])
  done;
  let examples =
    Array.init 8 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ c i ]))
  in
  (inst, examples)

let candidates inst params (examples : Atom.t array) n =
  let take k l =
    let rec go k = function
      | x :: tl when k > 0 -> x :: go (k - 1) tl
      | _ -> []
    in
    go k l
  in
  List.concat_map
    (fun i ->
      let bc = Bottom.bottom_clause ~params inst examples.(i) in
      List.map
        (fun k -> Clause.make bc.Clause.head (take k bc.Clause.body))
        [ 0; 1; 2; 4; List.length bc.Clause.body ])
    (List.init (min n (Array.length examples)) Fun.id)

let va x = Term.Var x

let p_clause =
  Clause.make (Atom.make "t" [ va "A" ]) [ Atom.make "p" [ va "A"; va "B" ] ]

(* ---------------- planner statistics: one memo per store ------------ *)

(* A two-example world whose example store always holds four facts
   (two heads, one depth-1 literal each), so its generation is the
   same whether or not the two literals share their second column —
   but the distinct count of that column differs. *)
let stat_world ~shared =
  let inst = Instance.create pq_schema in
  Instance.add inst "p" (Tuple.of_list [ c 0; c 5 ]);
  Instance.add inst "p" (Tuple.of_list [ c 1; c (if shared then 5 else 6) ]);
  let examples =
    Array.init 2 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ c i ]))
  in
  Coverage.build
    ~params:{ Bottom.default_params with Bottom.depth = 1 }
    ~backend:(Backend.Sharded 2) inst examples

let planner_suite =
  [
    tc "two coverage objects at one store generation never share statistics"
      (fun () ->
        (* a constant-bearing pattern makes cost estimation probe
           [distinct_count] on the (hash, non-pushdown) example store *)
        let with_const =
          Clause.make (Atom.make "t" [ va "A" ])
            [ Atom.make "p" [ va "A"; Term.Const (c 5) ] ]
        in
        let est cov =
          (Planner.choose ~batch_enabled:true ~ex_store:(Coverage.store cov)
             ~n_undecided:2 ~avg_bottom_len:2.0 with_const)
            .Planner.est_semijoin
        in
        let gen cov = Backend.generation (Option.get (Coverage.store cov)) in
        let shared = stat_world ~shared:true in
        let split = stat_world ~shared:false in
        check Alcotest.int "the stores' generations coincide" (gen shared)
          (gen split);
        let x_shared = est shared in
        let x_split = est split in
        check Alcotest.bool "the statistics really differ" true
          (x_shared <> x_split);
        (* the same estimates, asked in the other order of fresh
           objects: neither may be served the other's statistic *)
        let split' = stat_world ~shared:false in
        let shared' = stat_world ~shared:true in
        let y_split = est split' in
        let y_shared = est shared' in
        check (Alcotest.float 0.) "split store estimated on its own data"
          x_split y_split;
        check (Alcotest.float 0.) "shared store estimated on its own data"
          x_shared y_shared);
  ]

(* ---------------- online coverage: the acceptance path -------------- *)

let online_suite =
  [
    tc "single-tuple add/remove on a non-target relation never full-refreshes"
      (fun () ->
        let inst = Instance.create pq_schema in
        Instance.add inst "p" (Tuple.of_list [ c 0; c 1 ]);
        let examples =
          [|
            Atom.of_tuple "t" (Tuple.of_list [ c 0 ]);
            Atom.of_tuple "t" (Tuple.of_list [ c 1 ]);
          |]
        in
        let cov =
          Coverage.build ~params:Bottom.default_params inst examples
        in
        check Alcotest.(list bool) "baseline" [ true; false ]
          (Array.to_list (Coverage.vector cov p_clause));
        let full0 = Obs.Counter.value Coverage.c_full_refreshes in
        let applied0 = Obs.Counter.value Coverage.c_delta_applied in
        Instance.add inst "p" (Tuple.of_list [ c 1; c 0 ]);
        check Alcotest.(list bool) "add patched in" [ true; true ]
          (Array.to_list (Coverage.vector cov p_clause));
        ignore (Instance.remove inst "p" (Tuple.of_list [ c 0; c 1 ]));
        check Alcotest.(list bool) "remove patched in" [ false; true ]
          (Array.to_list (Coverage.vector cov p_clause));
        check Alcotest.int "zero full refreshes" full0
          (Obs.Counter.value Coverage.c_full_refreshes);
        check Alcotest.int "both deltas absorbed incrementally"
          (applied0 + 2)
          (Obs.Counter.value Coverage.c_delta_applied));
    tc "memoized vectors are lazily patched, not recomputed" (fun () ->
        let inst = Instance.create pq_schema in
        Instance.add inst "p" (Tuple.of_list [ c 0; c 1 ]);
        Instance.add inst "q" (Tuple.of_list [ c 2; c 2 ]);
        let examples =
          Array.init 3 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ c i ]))
        in
        let cov =
          Coverage.build ~params:Bottom.default_params inst examples
        in
        ignore (Coverage.vector cov p_clause);
        let patches0 = Obs.Counter.value Coverage.c_cache_patches in
        let misses0 = Obs.Counter.value Coverage.c_cache_misses in
        (* this delta only touches example 2's neighborhood (constant
           c2): the cached p-vector must be patched at that position
           alone, not recomputed as a miss *)
        Instance.add inst "p" (Tuple.of_list [ c 2; c 0 ]);
        check Alcotest.(list bool) "patched bits are right"
          [ true; false; true ]
          (Array.to_list (Coverage.vector cov p_clause));
        check Alcotest.int "served by the patch path" (patches0 + 1)
          (Obs.Counter.value Coverage.c_cache_patches);
        check Alcotest.int "not by a cache miss" misses0
          (Obs.Counter.value Coverage.c_cache_misses));
  ]

(* ---------------- mutation-stream differential ---------------------- *)

(* The tentpole's pin: after an interleaved add/remove stream through
   the delta API, the incrementally maintained structure answers every
   candidate exactly like a from-scratch rebuild of the mutated
   instance — on every backend, with zero full refreshes. *)
let differential backend seed ~interleave =
  let params = Bottom.default_params in
  let inst, examples = random_problem seed in
  let ex_t = Examples.make ~pos:(Array.to_list examples) ~neg:[] in
  let cov = Coverage.build ~params ~backend inst examples in
  let cands = candidates inst params examples 3 in
  (* warm the memo so the stream also exercises lazy patching *)
  List.iter (fun cl -> ignore (Coverage.vector cov cl)) cands;
  let stream = Examples.mutation_stream ~seed:(seed + 1) ~length:10 inst ex_t in
  let full0 = Obs.Counter.value Coverage.c_full_refreshes in
  let b = Backend.of_instance inst in
  if interleave then
    (* one delta per generation, queries interleaved with mutations *)
    List.iteri
      (fun i d ->
        Backend.apply b [ d ];
        if i mod 3 = 0 then
          ignore (Coverage.vector cov (List.nth cands (i mod List.length cands))))
      stream
  else Backend.apply b stream;
  let fresh = Coverage.build ~params ~backend inst examples in
  Obs.Counter.value Coverage.c_full_refreshes = full0
  && List.for_all
       (fun cl ->
         Array.to_list (Coverage.vector cov cl)
         = Array.to_list (Coverage.vector fresh cl))
       cands

let stream_suite =
  [
    qt ~count:12 "batched mutation stream: incremental == rebuilt, no full refresh"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        List.for_all
          (fun backend -> differential backend seed ~interleave:false)
          specs);
    qt ~count:12 "interleaved mutation stream: incremental == rebuilt, no full refresh"
      QCheck2.Gen.(int_bound 10_000)
      (fun seed ->
        List.for_all
          (fun backend -> differential backend seed ~interleave:true)
          specs);
  ]

(* ---------------- Castor's saturation: chase, filter, budget -------- *)

module Dataset = Castor_datasets.Dataset
module Hiv = Castor_datasets.Hiv
module Uwcse = Castor_datasets.Uwcse

let small_hiv () =
  Hiv.generate ~config:{ Hiv.default_config with Hiv.n_compounds = 12 } ()

let small_uwcse () =
  Uwcse.generate
    ~config:
      {
        Uwcse.default_config with
        Uwcse.n_students = 16;
        n_profs = 6;
        n_courses = 8;
        n_terms = 3;
      }
    ()

(* The saturation shape incremental refreshes must respect: the
   dataset's frontier filter and constant domains, two literals per
   relation and constant, and a [max_terms] budget small enough that
   every saturation trips it and is retried with a grown budget. *)
let castor_params (ds : Dataset.t) =
  {
    Bottom.depth = 3;
    max_terms = Some 4;
    per_relation_cap = 2;
    no_expand_domains = ds.Dataset.no_expand_domains;
    const_domains = List.map fst ds.Dataset.const_pool;
  }

(* Positive and negative coverage structures over [v]'s instance, with
   Castor's IND chase as the expand hook. *)
let castor_coverage ?backend (ds : Dataset.t) (v : Dataset.variant) =
  let params = castor_params ds in
  let plan = Castor_core.Plan.build v.Dataset.vschema in
  let expand r tu = Castor_core.Plan.expand plan v.Dataset.vinstance r tu in
  let build exs =
    Coverage.build ~expand ~params ?backend v.Dataset.vinstance exs
  in
  let ex = ds.Dataset.examples in
  (build ex.Examples.pos, build ex.Examples.neg, expand)

let saturations cov =
  Coverage.refresh cov;
  Array.to_list (Array.map Clause.to_string cov.Coverage.bottoms)

(* Incremental == rebuild on a real schema: pick a variant and a
   backend from [seed], warm the memo with bottom-clause prefixes, run
   an interleaved mutation stream, then require the patched positive
   and negative structures to match a fresh build — every saturation
   and every candidate's vector — without a full refresh. *)
let castor_differential make_ds seed =
  let ds = make_ds () in
  let variants = ds.Dataset.variants in
  let name, _ = List.nth variants (seed mod List.length variants) in
  let backend = List.nth specs (seed / 7 mod List.length specs) in
  let v = Dataset.variant_named ds name in
  let inst = v.Dataset.vinstance in
  let growths0 = Obs.Counter.value Bottom.c_budget_growths in
  let pos, neg, expand = castor_coverage ~backend ds v in
  let budget_binds = Obs.Counter.value Bottom.c_budget_growths > growths0 in
  let params = castor_params ds in
  let ex = ds.Dataset.examples in
  let cands =
    List.concat_map
      (fun (e : Atom.t) ->
        let bc = Bottom.bottom_clause ~expand ~params inst e in
        let body = Array.of_list bc.Clause.body in
        List.map
          (fun k ->
            Clause.make bc.Clause.head
              (Array.to_list (Array.sub body 0 (min k (Array.length body)))))
          [ 1; 2; 4; 8 ])
      [ ex.Examples.pos.(0); ex.Examples.neg.(0) ]
  in
  let query i =
    let cl = List.nth cands (i mod List.length cands) in
    ignore (Coverage.vector (if i mod 2 = 0 then pos else neg) cl)
  in
  List.iteri (fun i _ -> query i) cands;
  let full0 = Obs.Counter.value Coverage.c_full_refreshes in
  let b = Backend.of_instance inst in
  List.iteri
    (fun i d ->
      Backend.apply b [ d ];
      if i mod 3 = 0 then query i)
    (Examples.mutation_stream ~seed:(seed + 1) ~length:12 inst ex);
  let fresh_pos, fresh_neg, _ = castor_coverage ~backend ds v in
  let agree cov fresh =
    saturations cov = saturations fresh
    && List.for_all
         (fun cl ->
           Array.to_list (Coverage.vector cov cl)
           = Array.to_list (Coverage.vector fresh cl))
         cands
  in
  budget_binds
  && Obs.Counter.value Coverage.c_full_refreshes = full0
  && agree pos fresh_pos && agree neg fresh_neg

let constants_of (c : Clause.t) =
  List.concat_map Atom.constants (c.Clause.head :: c.Clause.body)

(* r(x, k) = s(k, z) joined on a filtered column: the chase reaches
   s through k although k never enters the frontier. *)
let filtered_ind_schema =
  Schema.make
    ~inds:[ Schema.ind_with_equality "r" [ "k" ] "s" [ "k" ] ]
    [
      Schema.relation "r" [ at ~domain:"d" "x"; at ~domain:"k" "k" ];
      Schema.relation "s" [ at ~domain:"k" "k"; at ~domain:"d" "z" ];
    ]

let castor_suite =
  [
    tc "a chase join on a filtered IND attribute reaches its example"
      (fun () ->
        let inst = Instance.create filtered_ind_schema in
        List.iter
          (fun i ->
            Instance.add inst "r" (Tuple.of_list [ c i; c (10 + i) ]);
            Instance.add inst "s" (Tuple.of_list [ c (10 + i); c (20 + i) ]))
          [ 0; 1 ];
        let plan = Castor_core.Plan.build filtered_ind_schema in
        let expand r tu = Castor_core.Plan.expand plan inst r tu in
        let params =
          {
            Bottom.default_params with
            Bottom.depth = 1;
            no_expand_domains = [ "k" ];
          }
        in
        let examples =
          Array.init 2 (fun i -> Atom.of_tuple "t" (Tuple.of_list [ c i ]))
        in
        let cov = Coverage.build ~expand ~params inst examples in
        let rounds0 = Obs.Counter.value Coverage.c_delta_rounds in
        (* shares only k = c10 with example 0's saturation, and only
           at columns of the filtered domain *)
        Instance.add inst "s" (Tuple.of_list [ c 10; c 29 ]);
        Coverage.refresh cov;
        check Alcotest.int "example 0 alone re-saturated" 1
          (Obs.Counter.value Coverage.c_delta_rounds - rounds0);
        check Alcotest.(list string) "equal to a rebuild"
          (saturations (Coverage.build ~expand ~params inst examples))
          (saturations cov));
    qt ~count:10 "HIV: chased, filtered, budgeted stream: incremental == rebuilt"
      QCheck2.Gen.(int_bound 10_000)
      (castor_differential small_hiv);
    qt ~count:10 "UW-CSE: chased, filtered, budgeted stream: incremental == rebuilt"
      QCheck2.Gen.(int_bound 10_000)
      (castor_differential small_uwcse);
    tc "a bType1 add re-saturates only the examples holding its bond id"
      (fun () ->
        let ds = small_hiv () in
        let v = Dataset.variant_named ds "initial" in
        let pos, neg, _ = castor_coverage ds v in
        let bottoms =
          Array.append pos.Coverage.bottoms neg.Coverage.bottoms
        in
        let holding v =
          Array.fold_left
            (fun n b -> if List.mem v (constants_of b) then n + 1 else n)
            0 bottoms
        in
        (* a saturated bond, re-typed with the type value most
           saturations hold: the old any-constant rule would reach
           nearly every example through that value *)
        let bond =
          List.find
            (fun (tu : Tuple.t) -> holding tu.(0) > 0)
            (Instance.tuples v.Dataset.vinstance "bType1")
        in
        let bd = bond.(0) in
        let ty =
          List.filter
            (fun t -> not (Value.equal t bond.(1)))
            (List.init 3 (fun i -> Value.int (i + 1)))
          |> List.sort (fun a b -> compare (holding b) (holding a))
          |> List.hd
        in
        let reach = holding bd in
        let any_constant_reach =
          Array.fold_left
            (fun n b ->
              let cs = constants_of b in
              if List.mem bd cs || List.mem ty cs then n + 1 else n)
            0 bottoms
        in
        check Alcotest.bool "the type value reaches more examples" true
          (any_constant_reach > 2 * reach);
        let rounds0 = Obs.Counter.value Coverage.c_delta_rounds in
        let full0 = Obs.Counter.value Coverage.c_full_refreshes in
        Instance.add v.Dataset.vinstance "bType1" (Tuple.of_list [ bd; ty ]);
        Coverage.refresh pos;
        Coverage.refresh neg;
        check Alcotest.int "re-saturated exactly the bond's examples" reach
          (Obs.Counter.value Coverage.c_delta_rounds - rounds0);
        check Alcotest.int "no full refresh" full0
          (Obs.Counter.value Coverage.c_full_refreshes);
        let fresh_pos, fresh_neg, _ = castor_coverage ds v in
        check Alcotest.(list string) "positives equal a rebuild"
          (saturations fresh_pos) (saturations pos);
        check Alcotest.(list string) "negatives equal a rebuild"
          (saturations fresh_neg) (saturations neg));
  ]

let suite =
  substrate_suite @ view_suite @ planner_suite @ online_suite @ stream_suite
  @ castor_suite
