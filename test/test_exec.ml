(* Tests for the deterministic domain pool (Mps_exec.Pool): submission-order
   results, exception plumbing, pool reuse, and the qcheck contract
   map pool f = List.map f for every jobs value. *)

module Pool = Mps_exec.Pool

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_create_bounds () =
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0));
  let p = Pool.create ~jobs:3 in
  Alcotest.(check int) "jobs recorded" 3 (Pool.jobs p);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *)

let test_after_shutdown () =
  let p = Pool.create ~jobs:2 in
  Pool.shutdown p;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool: used after shutdown") (fun () ->
      ignore (Pool.map p ~f:succ [ 1; 2; 3 ]))

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "squares in order"
        (List.map (fun x -> x * x) xs)
        (Pool.map p ~f:(fun x -> x * x) xs))

let test_map_unbalanced () =
  (* Skewed task costs force out-of-order completion; results must still
     come back in submission order. *)
  Pool.with_pool ~jobs:4 (fun p ->
      let work x =
        let n = if x mod 7 = 0 then 20_000 else 10 in
        let acc = ref 0 in
        for i = 1 to n do
          acc := (!acc + (x * i)) mod 1_000_003
        done;
        (x, !acc)
      in
      let xs = List.init 60 Fun.id in
      Alcotest.(check bool)
        "matches sequential" true
        (Pool.map p ~f:work xs = List.map work xs))

let test_reuse_many_batches () =
  Pool.with_pool ~jobs:4 (fun p ->
      for round = 1 to 200 do
        let xs = List.init (1 + (round mod 17)) (fun i -> (round * 31) + i) in
        if Pool.map p ~f:(fun x -> x * 2) xs <> List.map (fun x -> x * 2) xs
        then Alcotest.failf "round %d diverged" round
      done)

exception Boom of int

let test_exception_earliest () =
  (* Tasks 13 and 27 both raise; the pool must re-raise the earliest in
     submission order no matter which domain hits which first. *)
  Pool.with_pool ~jobs:4 (fun p ->
      for _ = 1 to 20 do
        match
          Pool.map p
            ~f:(fun x -> if x = 13 || x = 27 then raise (Boom x) else x)
            (List.init 50 Fun.id)
        with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom n -> Alcotest.(check int) "earliest task's exn" 13 n
      done)

let test_sequential_pool_runs_inline () =
  (* jobs=1 must be the plain sequential loop: same order, same effects,
     and an exception stops later tasks from running at all. *)
  let p = Pool.create ~jobs:1 in
  let log = ref [] in
  (match
     Pool.map p
       ~f:(fun x ->
         log := x :: !log;
         if x = 2 then failwith "stop";
         x)
       [ 0; 1; 2; 3 ]
   with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  Alcotest.(check (list int)) "tasks after the raise never ran" [ 2; 1; 0 ] !log;
  Pool.shutdown p

let test_with_pool_cleans_up () =
  match Pool.with_pool ~jobs:2 (fun _ -> failwith "body") with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure m -> Alcotest.(check string) "body exn surfaced" "body" m

let pool_props =
  let gen =
    QCheck2.Gen.(
      pair (oneofl [ 1; 2; 4; 8 ]) (list_size (0 -- 80) (int_bound 10_000)))
  in
  [
    qtest "pool: map = List.map for any jobs" gen (fun (jobs, xs) ->
        let f x = (x * 17) + (x mod 5) in
        Pool.with_pool ~jobs (fun p -> Pool.map p ~f xs) = List.map f xs);
  ]

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "create bounds" `Quick test_create_bounds;
          Alcotest.test_case "use after shutdown" `Quick test_after_shutdown;
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "unbalanced tasks" `Quick test_map_unbalanced;
          Alcotest.test_case "reuse across batches" `Quick test_reuse_many_batches;
          Alcotest.test_case "earliest exception wins" `Quick test_exception_earliest;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_sequential_pool_runs_inline;
          Alcotest.test_case "with_pool cleanup" `Quick test_with_pool_cleans_up;
        ]
        @ pool_props );
    ]
