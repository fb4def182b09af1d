(* Tests of the benchmark's own code: the order statistics its spread
   figures rest on, span self times, and the correctness gate. *)

open Perfbench

let close = Alcotest.float 1e-12

let test_median () =
  Alcotest.check close "odd" 3.0 (Summary.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Summary.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Summary.median [ 7.0 ])

(* expected values from Python's statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let q xs = Summary.quartiles xs in
  let triple = Alcotest.(triple close close close) in
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (q (List.init 10 (fun i -> Float.of_int (i + 1))));
  Alcotest.check triple "1..4" (1.25, 2.5, 3.75) (q [ 4.0; 2.0; 3.0; 1.0 ]);
  Alcotest.check triple "two values, extrapolated" (0.0, 3.0, 6.0) (q [ 5.0; 1.0 ]);
  Alcotest.check triple "three values" (1.0, 2.0, 3.0) (q [ 3.0; 1.0; 2.0 ]);
  Alcotest.check triple "single" (4.0, 4.0, 4.0) (q [ 4.0 ])

let test_summary () =
  let s = Summary.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "n" 4 s.Summary.n;
  Alcotest.check close "min" 1.0 s.Summary.min;
  Alcotest.check close "max" 4.0 s.Summary.max;
  Alcotest.check close "spread" (2.5 /. 2.5) (Summary.spread s);
  Alcotest.check close "p99 nearest rank" 4.0
    (Summary.percentile 0.99 [| 3.0; 1.0; 4.0; 2.0 |]);
  Alcotest.check close "p50 nearest rank" 2.0
    (Summary.percentile 0.5 [| 3.0; 1.0; 4.0; 2.0 |])

let span id parent name t0 t1 = { Span.id; parent; name; domain = 0; t0; t1 }

let self_of spans id =
  snd (List.find (fun (s, _) -> s.Span.id = id) (Span.self_times spans))

let test_self_nested () =
  (* root [0,10] > a [1,4] > leaf [2,3]; root > b [6,9] *)
  let spans =
    [
      span 0 Span.root "root" 0.0 10.0;
      span 1 0 "a" 1.0 4.0;
      span 2 1 "leaf" 2.0 3.0;
      span 3 0 "b" 6.0 9.0;
    ]
  in
  Alcotest.check close "root" 4.0 (self_of spans 0);
  Alcotest.check close "a" 2.0 (self_of spans 1);
  Alcotest.check close "leaf" 1.0 (self_of spans 2);
  Alcotest.check close "b" 3.0 (self_of spans 3);
  Alcotest.check close "self times add up to the root" 10.0
    (List.fold_left (fun a (_, s) -> a +. s) 0.0 (Span.self_times spans));
  Alcotest.(check (list (pair string close)))
    "by name"
    [ ("root", 4.0); ("a", 2.0); ("leaf", 1.0); ("b", 3.0) ]
    (Span.self_by_name spans)

let test_self_overlapping () =
  (* children on two domains overlap on [3,4] and count once; a child
     running past its parent is clipped to the parent's interval *)
  let spans =
    [
      span 0 Span.root "root" 0.0 10.0;
      span 1 0 "t" 1.0 4.0;
      { (span 2 0 "t" 3.0 6.0) with Span.domain = 1 };
      span 3 0 "t" 8.0 12.0;
    ]
  in
  Alcotest.check close "root" 3.0 (self_of spans 0);
  Alcotest.(check (list (pair string close)))
    "by name" [ ("root", 3.0); ("t", 10.0) ] (Span.self_by_name spans)

let test_recorder () =
  let r = Span.recorder () in
  let v =
    Span.with_span r ~parent:Span.root "outer" (fun id ->
        Span.with_span r ~parent:id "inner" (fun _ -> 42))
  in
  Alcotest.(check int) "value" 42 v;
  (match
     Span.with_span r ~parent:Span.root "raises" (fun _ -> failwith "boom")
   with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  let spans = Span.spans r in
  Alcotest.(check (list string)) "recorded, raising span too"
    [ "inner"; "outer"; "raises" ]
    (List.map (fun s -> s.Span.name) spans);
  let outer = List.find (fun s -> s.Span.name = "outer") spans in
  let inner = List.find (fun s -> s.Span.name = "inner") spans in
  Alcotest.(check int) "parent" outer.Span.id inner.Span.parent

let counts success failed crashed =
  {
    Campaign.zero_counts with
    success;
    failed;
    crashed;
    trials = success + failed + crashed;
  }

let test_gate () =
  let g = Gate.create () in
  Gate.same_counts g ~what:"same" ~expected:(counts 3 2 1) ~actual:(counts 3 2 1);
  Alcotest.(check bool) "identical counts pass" true (Gate.passed g);
  Gate.same_counts g ~what:"swapped" ~expected:(counts 3 2 1)
    ~actual:(counts 3 1 2);
  Alcotest.(check bool) "mismatched counts fail" false (Gate.passed g);
  Alcotest.(check int) "one failure" 1 (List.length (Gate.failures g));
  Alcotest.(check int) "two checks" 2 g.Gate.checks

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "summary, spread, percentile" `Quick test_summary;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time, nested" `Quick test_self_nested;
          Alcotest.test_case "self time, overlapping" `Quick test_self_overlapping;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "gate",
        [ Alcotest.test_case "mismatched counts fire" `Quick test_gate ] );
    ]
