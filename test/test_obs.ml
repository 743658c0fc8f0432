(* Tests for the Obs observability layer: counter exactness across
   domains, span timing, histogram quantiles, reservoirs, renderers. *)

open Helpers
module Obs = Castor_obs.Obs

(* ------------------------- JSON validity ------------------------- *)

(* A minimal JSON reader, enough to validate Obs.to_json output:
   objects, arrays, strings with escapes, numbers, true/false/null. *)
module Json_check = struct
  exception Bad of string

  let parse (s : string) =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal w =
      String.iter (fun c -> expect c) w
    in
    let string_lit () =
      expect '"';
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
                advance ();
                go ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do
                  match peek () with
                  | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                  | _ -> fail "bad \\u escape"
                done;
                go ()
            | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "raw control char"
        | Some _ ->
            advance ();
            go ()
      in
      go ()
    in
    let number () =
      let digits () =
        let had = ref false in
        let rec go () =
          match peek () with
          | Some '0' .. '9' ->
              had := true;
              advance ();
              go ()
          | _ -> ()
        in
        go ();
        if not !had then fail "expected digit"
      in
      (match peek () with Some '-' -> advance () | _ -> ());
      digits ();
      (match peek () with
      | Some '.' ->
          advance ();
          digits ()
      | _ -> ());
      match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | _ -> ());
          digits ()
      | _ -> ()
    in
    let rec value () =
      skip_ws ();
      (match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then advance ()
          else begin
            let rec members () =
              skip_ws ();
              string_lit ();
              skip_ws ();
              expect ':';
              value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> fail "expected , or }"
            in
            members ()
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then advance ()
          else begin
            let rec elements () =
              value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected , or ]"
            in
            elements ()
          end
      | Some '"' -> string_lit ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "expected value");
      skip_ws ()
    in
    value ();
    skip_ws ();
    if !pos <> n then fail "trailing garbage"

  let valid s = match parse s with () -> true | exception Bad _ -> false
end

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ----------------------------- suites ---------------------------- *)

let counter_suite =
  [
    tc "counter incr/add/value/reset" (fun () ->
        let c = Obs.Counter.create "test.counter_basic" in
        Obs.Counter.reset c;
        Obs.Counter.incr c;
        Obs.Counter.add c 41;
        check Alcotest.int "42" 42 (Obs.Counter.value c);
        Obs.Counter.reset c;
        check Alcotest.int "0 after reset" 0 (Obs.Counter.value c));
    tc "create is idempotent per name" (fun () ->
        let a = Obs.Counter.create "test.counter_same" in
        let b = Obs.Counter.create "test.counter_same" in
        Obs.Counter.reset a;
        Obs.Counter.incr a;
        Obs.Counter.incr b;
        check Alcotest.int "shared" 2 (Obs.Counter.value a));
    tc "increments from a spawned domain are counted exactly" (fun () ->
        let c = Obs.Counter.create "test.counter_domains" in
        Obs.Counter.reset c;
        let worker () =
          for _ = 1 to 1000 do
            Obs.Counter.incr c
          done;
          Obs.flush ()
        in
        let d1 = Domain.spawn worker in
        let d2 = Domain.spawn worker in
        for _ = 1 to 500 do
          Obs.Counter.incr c
        done;
        Domain.join d1;
        Domain.join d2;
        check Alcotest.int "2500 exactly" 2500 (Obs.Counter.value c));
  ]

let span_suite =
  [
    tc "with_span counts calls and accumulates time" (fun () ->
        let s = Obs.Span.create "test.span_basic" in
        Obs.Span.reset s;
        let r = Obs.Span.with_span s (fun () -> 6 * 7) in
        check Alcotest.int "result" 42 r;
        Obs.Span.with_span s (fun () -> Unix.sleepf 0.002);
        check Alcotest.int "two calls" 2 (Obs.Span.count s);
        check Alcotest.bool "time accumulated" true (Obs.Span.total_s s > 0.001);
        check Alcotest.bool "max >= 2ms" true (Obs.Span.max_s s >= 0.002));
    tc "with_span records when f raises" (fun () ->
        let s = Obs.Span.create "test.span_raise" in
        Obs.Span.reset s;
        (try Obs.Span.with_span s (fun () -> failwith "boom")
         with Failure _ -> ());
        check Alcotest.int "recorded" 1 (Obs.Span.count s));
    tc "quantiles are within the log-bucket factor" (fun () ->
        let s = Obs.Span.create "test.span_quantile" in
        Obs.Span.reset s;
        (* 90 fast events at ~1us, 10 slow at ~1ms *)
        for _ = 1 to 90 do
          Obs.Span.record_ns s 1_000
        done;
        for _ = 1 to 10 do
          Obs.Span.record_ns s 1_000_000
        done;
        let p50 = Obs.Span.quantile s 0.5 in
        let p99 = Obs.Span.quantile s 0.99 in
        (* log-bucketed estimates: within a factor sqrt(2) of truth *)
        check Alcotest.bool "p50 ~ 1us" true (p50 > 0.4e-6 && p50 < 2.5e-6);
        check Alcotest.bool "p99 ~ 1ms" true (p99 > 0.4e-3 && p99 < 2.5e-3);
        check (Alcotest.float 1e-12) "max exact" 1e-3 (Obs.Span.max_s s));
    tc "quantile of empty span is NaN" (fun () ->
        let s = Obs.Span.create "test.span_empty" in
        Obs.Span.reset s;
        check Alcotest.bool "nan" true (Float.is_nan (Obs.Span.quantile s 0.5)));
    tc "a lone sample low in its bucket is its own quantile" (fun () ->
        let s = Obs.Span.create "test.span_lone" in
        Obs.Span.reset s;
        (* 600 ns sits in bucket [512, 1024), whose midpoint is 724 *)
        Obs.Span.record_ns s 600;
        check (Alcotest.float 1e-15) "p50 = the sample" 600e-9
          (Obs.Span.quantile s 0.5);
        check (Alcotest.float 1e-15) "p99 = the sample" 600e-9
          (Obs.Span.quantile s 0.99));
    qt ~count:200 "a quantile stays within [min, max]"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 40) (int_range 0 100_000_000))
          (float_bound_inclusive 1.0))
      (fun (samples, q) ->
        (* one span reused across cases: [reset] must forget the min *)
        let s = Obs.Span.create "test.span_prop_range" in
        Obs.Span.reset s;
        List.iter (Obs.Span.record_ns s) samples;
        let lo = Obs.Span.min_s s and hi = Obs.Span.max_s s in
        let v = Obs.Span.quantile s q in
        lo = Float.of_int (List.fold_left min max_int samples) *. 1e-9
        && lo <= v && v <= hi);
    qt ~count:200 "a quantile does not fall as q rises"
      QCheck2.Gen.(
        triple
          (list_size (int_range 1 40) (int_range 0 100_000_000))
          (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
      (fun (samples, q1, q2) ->
        let s = Obs.Span.create "test.span_prop_monotone" in
        Obs.Span.reset s;
        List.iter (Obs.Span.record_ns s) samples;
        Obs.Span.quantile s (Float.min q1 q2)
        <= Obs.Span.quantile s (Float.max q1 q2));
  ]

let reservoir_suite =
  [
    tc "keeps the K slowest, sorted" (fun () ->
        let r = Obs.Reservoir.create ~capacity:3 "test.res_topk" in
        Obs.Reservoir.reset r;
        List.iter
          (fun (d, l) -> Obs.Reservoir.note r d l)
          [ (0.1, "a"); (0.5, "b"); (0.2, "c"); (0.9, "d"); (0.05, "e") ];
        check
          Alcotest.(list (pair (float 1e-9) string))
          "top3 desc"
          [ (0.9, "d"); (0.5, "b"); (0.2, "c") ]
          (Obs.Reservoir.slowest r));
    tc "reset empties" (fun () ->
        let r = Obs.Reservoir.create ~capacity:3 "test.res_reset" in
        Obs.Reservoir.note r 1.0 "x";
        Obs.Reservoir.reset r;
        check Alcotest.int "empty" 0 (List.length (Obs.Reservoir.slowest r));
        (* events slower than the old floor are accepted again *)
        Obs.Reservoir.note r 0.5 "y";
        check Alcotest.int "one" 1 (List.length (Obs.Reservoir.slowest r)));
  ]

let render_suite =
  [
    tc "to_json is valid JSON (quiescent registry)" (fun () ->
        Obs.reset ();
        check Alcotest.bool "valid" true (Json_check.valid (Obs.to_json ())));
    tc "to_json is valid JSON with data, incl. label escaping" (fun () ->
        Obs.reset ();
        let c = Obs.Counter.create "test.render_counter" in
        Obs.Counter.add c 7;
        let s = Obs.Span.create "test.render_span" in
        Obs.Span.record_ns s 123_456;
        let r = Obs.Reservoir.create ~capacity:4 "test.render_res" in
        Obs.Reservoir.note r 0.25 "label with \"quotes\",\nnewline \\ backslash";
        let json = Obs.to_json () in
        check Alcotest.bool "valid" true (Json_check.valid json);
        check Alcotest.bool "counter present" true
          (contains ~sub:"\"test.render_counter\":7" json));
    tc "report lists active instruments" (fun () ->
        Obs.reset ();
        let c = Obs.Counter.create "test.report_counter" in
        Obs.Counter.add c 3;
        let text = Obs.report () in
        check Alcotest.bool "mentions counter" true
          (contains ~sub:"test.report_counter" text));
  ]

let suite = counter_suite @ span_suite @ reservoir_suite @ render_suite
