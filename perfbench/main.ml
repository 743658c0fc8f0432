(* The repository benchmark: Castor learns and delta-stream updates on
   two workloads, a correctness gate on every learn and stream, and a
   separate traced run that attributes the time to layers.

     python3 perfbench/run.py --workload <name> --seed <n> \
       --seconds <s> --trace <0|1>

   run.py builds this executable from the checkout and passes the
   arguments through. Every workload is a closed loop with one client
   over a fixed list of pairs (a dataset's schema variant on one storage
   backend). After an untimed warm-up round, a run does:

   - learn rounds: each round prepares every pair afresh (a setup
     sample) and learns on it (a learn sample), and the correctness
     gates check the round's definitions. A run does a fixed number of
     rounds, the count whose measured length comes closest to
     [learn_share] of --seconds (at least [min_rounds]), so that every
     run of a workload does the same work;
   - [stream_passes] update-stream passes, spread evenly between the
     rounds: each pass prepares fresh copies of the pairs, then every
     step applies one delta and re-reads. The passes replay the same
     deltas, and a step's latency is its fastest pass.

   The host shares its cores with other machines, and their load comes
   in bursts: the same learn can take a third longer in one stretch of
   seconds than in the next. So a learn is reported as its fastest round
   and a step as its fastest pass, both over samples spread through the
   run; the setup's median over the rounds is reported, as the
   benchmark's contract asks. Over minutes the host's speed drifts as
   well, so every end-to-end time is reported at a reference host speed
   (see [Host]); the log also prints it as measured. The last line of
   standard output is one JSON object with the keys correct, attempted,
   failed and metrics: the end-to-end metrics with --trace 0, the
   per-layer ones with --trace 1.
   The traced run does one untraced round (the baseline of the tracing
   overhead), then one traced round and one stream pass over its
   structures. *)

open Castor_relational
open Castor_logic
open Castor_ilp
open Castor_datasets
open Castor_eval
module Obs = Castor_obs.Obs
module Castor = Castor_core.Castor
module Plan = Castor_core.Plan
module Reduction = Castor_core.Reduction

(* ------------------------------------------------------------------ *)
(* Clocks and statistics                                               *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* user + system time of the whole process, every domain included *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Nearest rank: the smallest sample with at least [pct]% of the
   samples at or below it. Integer arithmetic, so that 90% of 110
   samples is rank 99 and not the 100 a float product rounds to. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

let percentile ~pct xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(rank ~pct (Array.length a) - 1)

let median xs = percentile ~pct:50 xs

(* A percentile is reported only with at least ten samples beyond it. *)
let resolvable ~pct n = n - rank ~pct n >= 10

let sum = List.fold_left ( +. ) 0.

(* ------------------------------------------------------------------ *)
(* Benchmark-side spans                                                *)
(* ------------------------------------------------------------------ *)

(* Spans around the calls the benchmark makes into the layers. Off in
   the end-to-end run. In the traced run every span is kept in memory,
   summed per name (inclusive: spans nest), and written out as Chrome
   trace events when the run ends. Only the main domain records. *)
module Trace = struct
  type event = { name : string; ts_ns : int; dur_ns : int }

  let on = ref false

  let events : event list ref = ref []

  let totals : (string, float) Hashtbl.t = Hashtbl.create 32

  let total name = Option.value ~default:0. (Hashtbl.find_opt totals name)

  let span name f =
    if not !on then f ()
    else begin
      let t0 = now_ns () in
      Fun.protect f ~finally:(fun () ->
          let dur_ns = now_ns () - t0 in
          events := { name; ts_ns = t0; dur_ns } :: !events;
          Hashtbl.replace totals name
            (total name +. (float_of_int dur_ns *. 1e-9)))
    end

  (* Chrome trace-event JSON: complete ("X") events on one thread, so
     viewers nest them by time *)
  let write path =
    let evs = List.rev !events in
    let base = match evs with e :: _ -> e.ts_ns | [] -> 0 in
    let oc = open_out path in
    output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    List.iteri
      (fun i e ->
        Printf.fprintf oc
          "%s\n{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}"
          (if i = 0 then "" else ",")
          e.name
          (float_of_int (e.ts_ns - base) /. 1e3)
          (float_of_int e.dur_ns /. 1e3))
      evs;
    output_string oc "\n]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* What the per-layer metrics count                                    *)
(* ------------------------------------------------------------------ *)

(* The Obs instruments and GC statistics the per-layer metrics read.
   They cover the traced round and stream pass: the setups, the learns
   and the update steps. The correctness gates run under [uncounted],
   which takes what they add back out, so a gate's rebuild or signature
   does not pass for layer time. *)
module Counted = struct
  let counters =
    [
      "ilp.saturations"; "ilp.coverage.delta_applied"; "columnar.pushdown_hits";
      "columnar.pushdowns"; "ilp.coverage_vectors"; "ilp.cache_hits";
      "ilp.coverage.cache_misses"; "ilp.coverage.full_refreshes";
      "ilp.saturation.delta_rounds"; "ilp.coverage.cache_patches";
      "ilp.coverage.key_builds"; "ilp.coverage.decomp_memo_hits";
      "ilp.coverage.batch_eligible"; "ilp.planner.decisions";
      "ilp.planner.choice.semijoin"; "ilp.planner.est_cost"; "ilp.planner.actual_cost";
      "algebra.semijoin.rows_scanned"; "algebra.semijoin.leapfrog_seeks";
      "algebra.semijoin.wide_bags"; "logic.subsume.calls"; "logic.subsume.steps";
      "logic.subsume.ac_scans"; "logic.subsume.restarts"; "ilp.armg_calls";
      "ilp.blocking_removals"; "ilp.parallel.tasks"; "ilp.parallel.chunks";
    ]

  let spans =
    [
      "ilp.bottom.saturation"; "ilp.coverage.vector"; "ilp.coverage.covers";
      "algebra.semijoin.batch"; "ilp.armg.generalize";
    ]

  let read () =
    let g = Gc.quick_stat () in
    List.map (fun n -> (n, float_of_int (Obs.Counter.value (Obs.Counter.create n)))) counters
    @ List.map (fun n -> (n, Obs.Span.total_s (Obs.Span.create n))) spans
    @ [
        ("gc.words", g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words);
        ("gc.minor_collections", float_of_int g.Gc.minor_collections);
        ("gc.major_collections", float_of_int g.Gc.major_collections);
      ]

  (* what is not counted: the reading at [start] plus the gates' share *)
  let excluded : (string, float) Hashtbl.t = Hashtbl.create 64

  let excluded_of n = Option.value ~default:0. (Hashtbl.find_opt excluded n)

  let start () =
    Hashtbl.reset excluded;
    List.iter (fun (n, x) -> Hashtbl.replace excluded n x) (read ())

  let uncounted f =
    if not !Trace.on then f ()
    else begin
      let before = read () in
      let r = f () in
      List.iter2
        (fun (n, a) (_, b) -> Hashtbl.replace excluded n (excluded_of n +. b -. a))
        before (read ());
      r
    end

  (* [value n] is what the counted work added to instrument [n] *)
  let value () =
    let now = read () in
    fun n ->
      match List.assoc_opt n now with
      | Some x -> x -. excluded_of n
      | None -> invalid_arg ("Counted.value: " ^ n)
end

(* ------------------------------------------------------------------ *)
(* Learn rounds and update streams                                     *)
(* ------------------------------------------------------------------ *)

(* one (schema variant, backend) on its own copy of the data; the
   learn rounds leave it unmutated *)
type pair = { variant : string; spec : Backend.spec; ds : Dataset.t }

(* one pair's samples in one round *)
type timing = { setup_s : float; learn_s : float; learn_cpu_s : float }

(* what one pair's learn in a round leaves behind *)
type learned = {
  pair : pair;
  prep : Experiment.prepared;
  def : Clause.definition;
  seeds : int list;  (** positives whose bottom clauses are probed *)
  probes : Clause.t list;  (** prefixes of those bottom clauses *)
  timing : timing;
}

type workload = {
  name : string;
  domains : int;
  pairs : unit -> pair list;
  warm : Clause.t list -> Experiment.prepared -> unit;
      (** part of setup, given the probes: fills what the stream reads *)
  check_round : learned list -> string list;
      (** correctness gates on one round's definitions *)
  round_s : float;
      (** measured wall time of one round on a 2-vCPU x86 VM (Intel
          Xeon); it turns --seconds into a round count *)
  steps : int;  (** update-stream steps per pair *)
  reads : learned -> Clause.t list;  (** re-queried after every delta *)
  check_stream : full_refreshes:int -> learned list -> string list;
      (** correctness gates after the stream *)
}

(* Share of --seconds the learn rounds take, and the fewest rounds a run
   does. The rest of a run is the stream passes and the warm-up. *)
let learn_share = 0.55

let min_rounds = 3

(* passes over each update stream; a step's latency is its fastest *)
let stream_passes = 5

let castor ~domains =
  Algos.castor ~params:{ Castor.default_params with domains } ()

let take k l = List.filteri (fun i _ -> i < k) l

(* [k] distinct indexes below [n], drawn from [rng] *)
let pick rng k n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  List.sort compare (Array.to_list (Array.sub a 0 (min k n)))

(* Prefixes of the bottom clauses of eight positives: the candidate
   shapes the learner's search sends to coverage. The set is fixed, the
   same for every --seed: which probes a seed drew moved the cost of
   re-reading them by half. *)
let probes_of (cov : Coverage.t) =
  let seeds = pick (Random.State.make [| 0 |]) 8 (Coverage.length cov) in
  let probes =
    List.concat_map
      (fun i ->
        let bc, _ = Clause.variabilize cov.Coverage.bottoms.(i) in
        List.map
          (fun k -> Clause.make bc.Clause.head (take k bc.Clause.body))
          [ 1; 2; 4 ])
      seeds
  in
  (seeds, probes)

(* the reads after each update: coverage of [clauses] over the positives *)
let requery (prep : Experiment.prepared) clauses () =
  List.iter (fun c -> ignore (Coverage.vector prep.Experiment.all_pos c)) clauses

(* The host's speed. The cores are shared with other machines, and
   their load moves the speed of everything the benchmark runs by a
   third and more over minutes; a run's fastest samples move with it.
   So a fixed kernel of the benchmark's own (a chase through 8 MB of
   memory in an order the prefetcher cannot follow, then integer
   hashing; it allocates nothing, so the program's heap does not touch
   it) is timed between the program's steps all through the run
   (before each setup, after each learn, after every tenth update step),
   and the end-to-end times are reported at the reference speed:
   measured * [reference_s] / the kernel's median time in the run. A
   slower program moves the measured time and not the kernel; a slower
   host moves both. *)
module Host = struct
  let n = 1 lsl 20

  (* one cycle through all [n] slots (Sattolo), so the chase below
     touches 8 MB in an order the prefetcher cannot follow *)
  let next =
    let a = Array.init n Fun.id in
    let rng = Random.State.make [| 7 |] in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng i in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a

  let kernel () =
    let j = ref 0 and h = ref 0 in
    for _ = 1 to 60_000 do
      j := next.(!j);
      h := (!h * 31) + !j
    done;
    for i = 1 to 400_000 do
      h := (!h lxor i) * 0x2545F491
    done;
    !h

  (* the kernel's typical median time on a 2-vCPU x86 VM (Intel Xeon) *)
  let reference_s = 0.0085

  let samples = ref []

  let sample () =
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    samples := since t0 :: !samples

  let median_s () = median !samples
end

(* One pair's share of a round: dataset to prepared coverage structures
   (plus the workload's [warm]), then the learn. Each starts from a
   compacted heap, so that neither pays the other's garbage. *)
let learn_pair w p =
  Gc.compact ();
  Host.sample ();
  let t0 = now_ns () in
  let prep =
    Trace.span "Experiment.prepare" (fun () ->
        Experiment.prepare ~backend:p.spec p.ds p.variant)
  in
  let seeds, probes = probes_of prep.Experiment.all_pos in
  Trace.span "warm" (fun () -> w.warm probes prep);
  let setup_s = since t0 in
  Gc.compact ();
  let t0 = now_ns () and c0 = cpu_s () in
  let def =
    Trace.span "Experiment.train_full" (fun () ->
        Experiment.train_full prep (castor ~domains:w.domains))
  in
  let learn_s = since t0 and learn_cpu_s = cpu_s () -. c0 in
  Host.sample ();
  { pair = p; prep; def; seeds; probes; timing = { setup_s; learn_s; learn_cpu_s } }

(* [steps] deltas of a seeded Examples.mutation_stream, taken an equal
   share per (relation, direction) stratum, in stream order. The
   relation and direction of a delta set most of its cost (one on a
   low-selectivity column re-saturates every example), and drawing
   them at random per step would make two seeds do different amounts
   of work. Deltas that change nothing (re-adding a stored tuple,
   repeating an earlier delta) are left out for the same reason. *)
let stratified_stream ~seed ~steps inst examples =
  let pool = Examples.mutation_stream ~seed ~length:(16 * steps) inst examples in
  let stratum = function
    | Delta.Add (r, _) -> (r, true)
    | Delta.Remove (r, _) -> (r, false)
  in
  let seen = Hashtbl.create 64 in
  let queues = Hashtbl.create 32 in
  List.iter
    (fun d ->
      let noop =
        match d with Delta.Add (r, tu) -> Instance.mem inst r tu | Delta.Remove _ -> false
      in
      if not (noop || Hashtbl.mem seen d) then begin
        Hashtbl.replace seen d ();
        let q =
          match Hashtbl.find_opt queues (stratum d) with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.replace queues (stratum d) q;
              q
        in
        Queue.push d q
      end)
    pool;
  let strata =
    Array.of_list (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) queues []))
  in
  let n = Array.length strata in
  (* round robin over the strata; [dry] counts strata found empty in a
     row, so the draw ends early only when every stratum is spent *)
  let rec draw i dry acc taken =
    if taken = steps || dry >= n then List.rev acc
    else
      match Queue.take_opt (Hashtbl.find queues strata.(i mod n)) with
      | Some d -> draw (i + 1) 0 (d :: acc) (taken + 1)
      | None -> draw (i + 1) (dry + 1) acc taken
  in
  draw 0 0 [] 0

(* One delta per step through the backend's delta API, then the reads
   that must see it; the step's latency in ms. *)
let step b read d =
  let t0 = now_ns () in
  Trace.span "Backend.apply" (fun () -> Backend.apply b [ d ]);
  Trace.span "Coverage.vector requery" read;
  since t0 *. 1e3

(* The update stream of one pair: its deltas, drawn once from the
   unmutated data, and each step's fastest pass so far (ms). *)
type stream = { deltas : Delta.t array; best : float array }

let stream_of w ~seed l =
  let inst = l.prep.Experiment.pvariant.Dataset.vinstance in
  let seed = Hashtbl.hash (seed, l.pair.variant, Backend.spec_to_string l.pair.spec) in
  let deltas =
    Array.of_list (stratified_stream ~seed ~steps:w.steps inst l.pair.ds.Dataset.examples)
  in
  { deltas; best = Array.make (Array.length deltas) infinity }

(* The timed steps of every stream, each on the structures of its
   learned pair, from a compacted heap; returns the full refreshes they
   caused. *)
let timed_steps w streams ls =
  let full0 = Obs.Counter.value Coverage.c_full_refreshes in
  Gc.compact ();
  Trace.span "stream" (fun () ->
      List.iter2
        (fun s l ->
          let b = Backend.of_instance l.prep.Experiment.pvariant.Dataset.vinstance in
          let read = requery l.prep (w.reads l) in
          Array.iteri
            (fun i d ->
              s.best.(i) <- Float.min s.best.(i) (step b read d);
              if i mod 10 = 9 then Host.sample ())
            s.deltas)
        streams ls);
  Obs.Counter.value Coverage.c_full_refreshes - full0

(* One pass over every stream, each on a fresh copy of its pair's data,
   prepared and read once before timing starts, so that the cached
   vectors the steps patch are there, as the learner leaves them; [ls]
   are the learned pairs whose definitions are read. A run spreads its
   passes over its length and keeps each step's fastest pass: a burst
   of load on the host slows one pass, not all. Returns the pass's pairs
   (their data now mutated) and the full refreshes the steps caused. *)
let pass w streams ls =
  let fresh =
    List.map2
      (fun p l ->
        let prep = Experiment.prepare ~backend:p.spec p.ds p.variant in
        let seeds, probes = probes_of prep.Experiment.all_pos in
        w.warm probes prep;
        let l = { l with pair = p; prep; seeds; probes } in
        requery prep (w.reads l) ();
        l)
      (w.pairs ()) ls
  in
  (fresh, timed_steps w streams fresh)

let digest_of def = Digest.to_hex (Digest.string (Clause.definition_to_string def))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* -- hiv-learn: the coverage-bound learn ----------------------------- *)

(* HIV at 300 compounds, half of HIV-Large: a learn takes about 1.1 to
   1.5 s at two domains, so a run repeats it some fifteen times, and
   the learned definition still has six clauses (HIV-Large's learn
   takes some 10 s, one sample a run). HIV is a fixed dataset, like the
   paper's; the seed draws the update stream.
   The pinned digest is that of the definition Castor learns for
   hivActive on the initial schema with default parameters (columnar,
   two domains) and the experiment runner's fixed sampling seed. *)
let hiv_config = { Hiv.large_config with Hiv.n_compounds = 300 }

let hiv_digest = "f58cc856fc305128243f2d39795519aa"

let hiv =
  {
    name = "hiv-learn";
    domains = min 2 (Domain.recommended_domain_count ());
    pairs =
      (fun () ->
        [ { variant = "initial"; spec = Backend.Columnar; ds = Hiv.generate ~config:hiv_config () } ]);
    warm = (fun _ _ -> ());
    round_s = 1.9;
    check_round =
      List.concat_map (fun l ->
          let digest = digest_of l.def in
          if String.equal digest hiv_digest then []
          else [ Printf.sprintf "learned definition digest %s, pinned %s" digest hiv_digest ]);
    steps = 100;
    reads = (fun l -> l.def.Clause.clauses);
    check_stream = (fun ~full_refreshes:_ _ -> []);
  }

(* -- uwcse-schemas: schema independence and the write path ---------- *)

(* UW-CSE with 48 students (the generator's default is 80): the twelve
   learns of a round take about 4.5 s together, so a run repeats them
   some six times, and each definition still has three clauses. *)
let uwcse_config =
  { Uwcse.default_config with Uwcse.n_students = 48; n_profs = 14; n_courses = 21 }

let uwcse_variants = [ "original"; "4nf"; "denorm1"; "denorm2" ]

(* the flat instance, the column store and the library's default, the
   sharded store: a change to one substrate moves a third of the work
   and leaves the rest as a control *)
let uwcse_specs = [ Backend.Flat; Backend.Columnar; Backend.default_spec ]

let schemas =
  {
    name = "uwcse-schemas";
    domains = 1;
    pairs =
      (fun () ->
        List.concat_map
          (fun variant ->
            List.map
              (fun spec -> { variant; spec; ds = Uwcse.generate ~config:uwcse_config () })
              uwcse_specs)
          uwcse_variants);
    (* setup includes warming the probe memo, so the stream measures
       patching cached vectors, not filling them *)
    warm = (fun probes prep -> requery prep probes ());
    round_s = 5.0;
    (* schema independence: per variant the substrates learn the same
       text, and every variant's definition covers the same examples *)
    check_round =
      (fun round ->
        let text l = Clause.definition_to_string l.def in
        let backends =
          List.filter_map
            (fun variant ->
              match List.filter (fun l -> String.equal l.pair.variant variant) round with
              | l :: rest when List.for_all (fun r -> String.equal (text l) (text r)) rest -> None
              | _ -> Some (variant ^ ": definitions differ across backends"))
            uwcse_variants
        in
        let signatures =
          Counted.uncounted (fun () ->
              List.map (fun l -> Experiment.signature l.prep l.def) round)
        in
        backends
        @
        match signatures with
        | s0 :: rest when List.for_all (fun s -> s = s0) rest -> []
        | _ -> [ "variant signatures differ (schema independence broken)" ]);
    (* twenty steps on each of the twelve pairs: 240 samples, 24 of
       them beyond p90 *)
    steps = 20;
    reads = (fun l -> l.def.Clause.clauses @ l.probes);
    (* incremental == rebuild: the patched probe vectors against
       coverage built from scratch on the mutated instance, and no full
       refresh *)
    check_stream =
      (fun ~full_refreshes ls ->
        List.concat_map
          (fun l ->
            let patched, rebuilt =
              Counted.uncounted (fun () ->
                  let v = l.prep.Experiment.pvariant in
                  let plan = Plan.build ~mode:`Equality_only v.Dataset.vschema in
                  let fresh =
                    Coverage.build
                      ~expand:(fun rel tu -> Plan.expand plan v.Dataset.vinstance rel tu)
                      ~backend:l.pair.spec ~params:l.prep.Experiment.bottom_params
                      v.Dataset.vinstance l.pair.ds.Dataset.examples.Examples.pos
                  in
                  ( List.map (Coverage.vector l.prep.Experiment.all_pos) l.probes,
                    List.map (Coverage.vector fresh) l.probes ))
            in
            if patched = rebuilt then []
            else
              [
                Printf.sprintf "%s/%s: patched vectors differ from a rebuild" l.pair.variant
                  (Backend.spec_to_string l.pair.spec);
              ])
          ls
        @ if full_refreshes = 0 then [] else [ Printf.sprintf "%d full refreshes" full_refreshes ]);
  }

let workloads = [ hiv; schemas ]
(* ------------------------------------------------------------------ *)
(* Layer replays (traced run only)                                     *)
(* ------------------------------------------------------------------ *)

(* Layers without a span in the program are timed by calling their
   public function on inputs taken from the traced round: the probes
   (bottom-clause prefixes), the learned clauses and the probed bottom
   clauses. Times are summed over the round's pairs. *)
let replay_min_s = 0.05

let replay ctxs =
  let acc = Hashtbl.create 16 in
  (* passes over the inputs are repeated until [replay_min_s] has gone
     by, so that short layers still read above clock resolution; the
     time reported is per pass *)
  let time name f =
    let t0 = now_ns () in
    let passes = ref 0 in
    Trace.span name (fun () ->
        while !passes = 0 || since t0 < replay_min_s do
          f ();
          incr passes
        done);
    let prev = Option.value ~default:0. (Hashtbl.find_opt acc name) in
    Hashtbl.replace acc name (prev +. (since t0 /. float_of_int !passes))
  in
  List.iter
    (fun c ->
      let prep = c.prep in
      let v = prep.Experiment.pvariant in
      let pos = prep.Experiment.all_pos in
      let tr = List.assoc c.pair.variant c.pair.ds.Dataset.variants in
      let clauses = c.probes @ c.def.Clause.clauses in
      let bottoms =
        List.map (fun i -> fst (Clause.variabilize pos.Coverage.bottoms.(i))) c.seeds
      in
      time "transform.apply_s" (fun () ->
          ignore (Transform.apply_schema c.pair.ds.Dataset.schema tr);
          ignore (Transform.apply_instance c.pair.ds.Dataset.instance tr));
      time "plan.build_s" (fun () -> ignore (Plan.build v.Dataset.vschema));
      time "backend.load_s" (fun () -> ignore (Backend.load c.pair.spec v.Dataset.vinstance));
      time "planner.choose_s" (fun () ->
          List.iter
            (fun cl ->
              ignore
                (Planner.choose ~batch_enabled:true ~ex_store:(Coverage.store pos)
                   ~n_undecided:(Coverage.length pos)
                   ~avg_bottom_len:(Coverage.avg_bottom_len pos) cl))
            clauses);
      time "hypergraph.decompose_s" (fun () ->
          List.iter
            (fun (cl : Clause.t) ->
              ignore
                (Hypergraph.decompose
                   (List.map
                      (fun a -> Algebra.pattern_vars (Planner.pattern_of_atom a))
                      (cl.Clause.head :: cl.Clause.body))))
            clauses);
      let bottoms_probed = Array.sub pos.Coverage.bottoms 0 (min 16 (Coverage.length pos)) in
      time "subsume.s" (fun () ->
          List.iter
            (fun cl ->
              Array.iter
                (fun b -> ignore (Subsume.subsumes ~max_steps:250_000 cl b))
                bottoms_probed)
            clauses);
      time "clause.canonical_key_s" (fun () ->
          List.iter (fun cl -> ignore (Clause.canonical_key cl)) (clauses @ bottoms));
      time "minimize.reduce_s" (fun () ->
          List.iter (fun b -> ignore (Minimize.reduce b)) bottoms);
      let plan = Plan.build v.Dataset.vschema in
      time "reduction.reduce_s" (fun () ->
          List.iter
            (fun cl -> ignore (Reduction.reduce plan prep.Experiment.all_neg cl))
            c.def.Clause.clauses))
    ctxs;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt acc name)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { mname : string; unit_ : string; value : float }

let m mname unit_ value = { mname; unit_; value }

let ratio a b = if b > 0. then a /. b else 0.

let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6

(* per pair, [agg] over the rounds' samples of [f], summed over pairs *)
let per_pair agg f rounds =
  match rounds with
  | [] -> 0.
  | r0 :: _ ->
      sum (List.mapi (fun i _ -> agg (List.map (fun r -> f (List.nth r i)) rounds)) r0)

let fastest = List.fold_left Float.min infinity

(* [rounds]: each round's samples, pair by pair; [updates]: the latency
   of every stream step (its fastest pass), all pairs together; times
   are multiplied by [scale], the host's speed against its reference.
   Returns the metrics as measured and as reported. *)
let end_to_end ~scale (rounds : timing list list) updates =
  let times =
    [
      ("setup_s", "s", per_pair median (fun t -> t.setup_s) rounds);
      ("learn_s", "s", per_pair fastest (fun t -> t.learn_s) rounds);
      ("learn_cpu_s", "s", per_pair fastest (fun t -> t.learn_cpu_s) rounds);
      ("update_p50_ms", "ms", percentile ~pct:50 updates);
      ("update_p90_ms", "ms", percentile ~pct:90 updates);
      ("stream_total_s", "s", sum updates /. 1e3);
    ]
  in
  let heap = m "peak_heap_mb" "MB" (mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)) in
  ( List.map (fun (n, u, x) -> m n u x) times @ [ heap ],
    List.map (fun (n, u, x) -> m n u (x *. scale)) times @ [ heap ] )

(* Read right after the traced round and stream, before the replays touch any
   instrument. Obs span totals nest (ilp.armg.generalize contains
   ilp.coverage.covers), so they are reported as inclusive times and
   never summed. *)
let obs_layers () =
  let v = Counted.value () in
  [
    m "bottom.saturation_incl_s" "s" (v "ilp.bottom.saturation");
    m "bottom.saturations" "count" (v "ilp.saturations");
    m "deltas.applied" "count" (v "ilp.coverage.delta_applied");
    m "columnar.pushdown_hit_ratio" "ratio"
      (ratio (v "columnar.pushdown_hits") (v "columnar.pushdowns"));
    m "coverage.vector_incl_s" "s" (v "ilp.coverage.vector");
    m "coverage.covers_incl_s" "s" (v "ilp.coverage.covers");
    m "coverage.vectors" "count" (v "ilp.coverage_vectors");
    m "coverage.cache_hit_ratio" "ratio"
      (let hits = v "ilp.cache_hits" in
       ratio hits (hits +. v "ilp.coverage.cache_misses"));
    m "coverage.full_refreshes" "count" (v "ilp.coverage.full_refreshes");
    m "coverage.delta_rounds" "count" (v "ilp.saturation.delta_rounds");
    m "coverage.cache_patches" "count" (v "ilp.coverage.cache_patches");
    m "coverage.key_builds" "count" (v "ilp.coverage.key_builds");
    m "coverage.decomp_memo_hit_ratio" "ratio"
      (ratio (v "ilp.coverage.decomp_memo_hits") (v "ilp.coverage.batch_eligible"));
    m "planner.decisions" "count" (v "ilp.planner.decisions");
    m "planner.semijoin_share" "ratio"
      (ratio (v "ilp.planner.choice.semijoin") (v "ilp.planner.decisions"));
    m "planner.est_actual_ratio" "ratio"
      (ratio (v "ilp.planner.est_cost") (v "ilp.planner.actual_cost"));
    m "algebra.semijoin_incl_s" "s" (v "algebra.semijoin.batch");
    m "algebra.rows_scanned" "count" (v "algebra.semijoin.rows_scanned");
    m "algebra.leapfrog_seeks" "count" (v "algebra.semijoin.leapfrog_seeks");
    m "algebra.wide_bags" "count" (v "algebra.semijoin.wide_bags");
    m "subsume.calls" "count" (v "logic.subsume.calls");
    m "subsume.steps" "count" (v "logic.subsume.steps");
    m "subsume.ac_scans" "count" (v "logic.subsume.ac_scans");
    m "subsume.restarts" "count" (v "logic.subsume.restarts");
    m "armg.generalize_incl_s" "s" (v "ilp.armg.generalize");
    m "armg.calls" "count" (v "ilp.armg_calls");
    m "armg.blocking_removals" "count" (v "ilp.blocking_removals");
    m "parallel.tasks" "count" (v "ilp.parallel.tasks");
    m "parallel.chunks" "count" (v "ilp.parallel.chunks");
    m "gc.allocated_mb" "MB" (mb (v "gc.words"));
    m "gc.minor_collections" "count" (v "gc.minor_collections");
    m "gc.major_collections" "count" (v "gc.major_collections");
  ]

let replay_layers get =
  List.map
    (fun n -> m n "s" (get n))
    [
      "transform.apply_s";
      "plan.build_s";
      "backend.load_s";
      "planner.choose_s";
      "hypergraph.decompose_s";
      "subsume.s";
      "clause.canonical_key_s";
      "minimize.reduce_s";
      "reduction.reduce_s";
    ]

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname
              (json_number x.value) x.unit_)
          metrics))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Settings fixed here, not inherited from OCAMLRUNPARAM, so two runs
   of one build always use the same collector configuration. *)
let fix_gc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

(* the host's 1-minute load average, read when the run starts; NaN
   where /proc/loadavg cannot be read *)
let load_avg_1m () =
  match In_channel.with_open_text "/proc/loadavg" In_channel.input_line with
  | Some line -> ( try Scanf.sscanf line "%f" Fun.id with Scanf.Scan_failure _ | Failure _ | End_of_file -> nan)
  | None -> nan
  | exception Sys_error _ -> nan

let between_rounds () =
  Obs.reset ();
  Gc.compact ()

(* One gated unit of work (a round or a stream): Ok with the gates that
   did not hold, or Error when it raised. *)
let attempt label f =
  let t0 = now_ns () in
  let r =
    try Ok (f ()) with
    | (Out_of_memory | Stack_overflow) as e -> raise e
    | e -> Error (Printexc.to_string e)
  in
  let failures =
    match r with Ok (_, fs) -> fs | Error e -> [ "raised " ^ e ]
  in
  Printf.printf "%s done in %.2f s%s\n%!" label (since t0)
    (String.concat "" (List.map (fun f -> "\n  FAILED: " ^ f) failures));
  (Result.map fst r, failures <> [])

let round w pairs () =
  let ls = List.map (learn_pair w) pairs in
  (ls, w.check_round ls)

(* [n] learn rounds, [after k] run at the end of round [k] (and counted
   in its outcome). Returns the samples of the rounds that did not
   raise, oldest first, the last such round and the outcome (failed or
   not) of every round. Earlier rounds keep only their samples, so that
   their structures do not pile up in the heap. *)
let learn_rounds w ~n ?(after = fun _ -> ()) pairs =
  let rec go k rounds last outcomes =
    if k >= n then (List.rev rounds, last, outcomes)
    else begin
      between_rounds ();
      let r, failed =
        attempt (Printf.sprintf "round %d" k) (fun () ->
            let r = round w pairs () in
            after k;
            r)
      in
      (match r with
      | Ok ls ->
          List.iter
            (fun l ->
              Printf.printf "  %-8s %-10s setup %.4f s  learn %.4f s  cpu %.4f s\n"
                l.pair.variant (Backend.spec_to_string l.pair.spec) l.timing.setup_s
                l.timing.learn_s l.timing.learn_cpu_s)
            ls
      | Error _ -> ());
      match r with
      | Ok ls -> go (k + 1) (List.map (fun l -> l.timing) ls :: rounds) ls (failed :: outcomes)
      | Error _ -> go (k + 1) rounds last (failed :: outcomes)
    end
  in
  go 0 [] [] []

(* where the traced run writes its Chrome trace, relative to the
   checkout root the benchmark runs from *)
let trace_dir = Filename.concat "perfbench" "out"

let print_metrics = List.iter (fun x -> Printf.printf "  %-34s %14.6f %s\n" x.mname x.value x.unit_)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  let seed = !seed in
  fix_gc ();
  let loadavg = load_avg_1m () in
  Printf.printf "workload %s seed %d seconds %d trace %d; load average %.2f\n%!" w.name seed
    !seconds !trace loadavg;
  let outcomes = ref [] in
  let record failed = outcomes := failed :: !outcomes in
  (* Warm-up, untimed: a round on a copy of the data of its own, whose
     definitions the stream passes read and whose data the streams are
     drawn from. *)
  let sls, failed = attempt "warm-up round" (round w (w.pairs ())) in
  record failed;
  let sls = Result.value ~default:[] sls in
  let e2e, traced =
    if !trace = 0 then begin
      (* the stream passes follow rounds spread evenly over the run; the
         stream gates check the last one *)
      let streams = List.map (stream_of w ~seed) sls in
      let budget = learn_share *. float_of_int !seconds in
      let n = max min_rounds (Float.to_int (Float.round (budget /. w.round_s))) in
      let full_refreshes = ref 0 and streamed = ref [] in
      let pass_rounds = List.init stream_passes (fun j -> ((j + 1) * n / stream_passes) - 1) in
      let after k =
        if List.mem k pass_rounds then begin
          let ls, f = pass w streams sls in
          streamed := ls;
          full_refreshes := !full_refreshes + f
        end
      in
      let rounds, _, round_outcomes = learn_rounds w ~n ~after (w.pairs ()) in
      List.iter record round_outcomes;
      let _, failed =
        attempt "stream gates" (fun () ->
            ((), w.check_stream ~full_refreshes:!full_refreshes !streamed))
      in
      record failed;
      let updates = List.concat_map (fun s -> Array.to_list s.best) streams in
      let n = List.length updates in
      Printf.printf "%d rounds, %d update samples\n" (List.length rounds) n;
      let e2e =
        if rounds = [] || not (resolvable ~pct:90 n) then begin
          Printf.printf "no metrics: %d rounds, %d update samples (p90 needs ten beyond it)\n"
            (List.length rounds) n;
          None
        end
        else begin
          Printf.printf "update latency deciles (ms):%s\n"
            (String.concat ""
               (List.map
                  (fun pct -> Printf.sprintf " p%d %.3f" pct (percentile ~pct updates))
                  [ 10; 20; 30; 40; 50; 60; 70; 80; 90 ]));
          let scale = Host.reference_s /. Host.median_s () in
          let measured, reported = end_to_end ~scale rounds updates in
          Printf.printf "as measured (host kernel %d samples, median %.3f ms, scale %.4f):\n"
            (List.length !Host.samples) (Host.median_s () *. 1e3) scale;
          print_metrics measured;
          Some reported
        end
      in
      (e2e, None)
    end
    else begin
      (* one untraced round, the baseline of the tracing overhead, then
         one traced round and one pass of the streams over its
         structures *)
      let _, base, base_outcomes = learn_rounds w ~n:1 (w.pairs ()) in
      List.iter record base_outcomes;
      between_rounds ();
      Trace.on := true;
      Counted.start ();
      let r, failed = attempt "traced round" (round w (w.pairs ())) in
      record failed;
      let ls = Result.value ~default:[] r in
      let _, failed =
        attempt "traced stream" (fun () ->
            let full_refreshes = timed_steps w (List.map (stream_of w ~seed) ls) ls in
            ((), w.check_stream ~full_refreshes ls))
      in
      record failed;
      let layers =
        obs_layers ()
        @ [
            m "backend.apply_s" "s" (Trace.total "Backend.apply");
            m "coverage.requery_s" "s" (Trace.total "Coverage.vector requery");
          ]
      in
      let replays = replay_layers (replay ls) in
      let learn_sum ls = sum (List.map (fun l -> l.timing.learn_s) ls) in
      let overhead =
        match (ls, base) with
        | _ :: _, (_ :: _ as b) -> learn_sum ls -. learn_sum b
        | _ -> nan
      in
      (None, Some (layers @ replays, overhead, ls <> []))
    end
  in
  let attempted = List.length !outcomes in
  let failed = List.length (List.filter Fun.id !outcomes) in
  let failed_share = ratio (float_of_int failed) (float_of_int attempted) in
  Printf.printf "failed_share %.3f (%d of %d rounds and streams)\n" failed_share failed attempted;
  let measured, metrics =
    match (e2e, traced) with
    | Some e2e, _ ->
        Printf.printf "at the reference host speed:\n";
        print_metrics e2e;
        (true, e2e)
    | None, Some (layers, overhead, measured) ->
        Printf.printf "tracing overhead: traced learn_s minus untraced learn_s = %.6f s\n"
          overhead;
        if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
        let path = Filename.concat trace_dir (Printf.sprintf "trace-%s-%d.json" w.name seed) in
        Trace.write path;
        Printf.printf "chrome trace written to %s (%d spans)\n" path (List.length !Trace.events);
        let per_layer =
          layers
          @ [
              m "failed_share" "ratio" failed_share;
              m "trace.overhead_s" "s" overhead;
              m "host.load_avg_1m" "load" loadavg;
              m "host.kernel_ms" "ms" (Host.median_s () *. 1e3);
            ]
        in
        print_metrics per_layer;
        (measured, per_layer)
    | None, None -> (false, [])
  in
  let correct = failed = 0 && measured in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  exit 0
