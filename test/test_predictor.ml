open Dmp_predictor

let check = Alcotest.check

(* ---------- History ---------- *)

let test_history () =
  let h = History.make 4 in
  let x = History.shift h History.empty ~taken:true in
  check Alcotest.bool "bit 0" true (History.bit h x 0);
  let x = History.shift h x ~taken:false in
  check Alcotest.bool "bit 0 now nt" false (History.bit h x 0);
  check Alcotest.bool "bit 1 taken" true (History.bit h x 1);
  (* length masking *)
  let x = ref History.empty in
  for _ = 1 to 10 do
    x := History.shift h !x ~taken:true
  done;
  check Alcotest.int "masked" 15 (History.fold h !x)

let train predictor outcomes =
  List.iter
    (fun (addr, taken) ->
      ignore (predictor.Predictor.predict ~addr);
      predictor.Predictor.update ~addr ~taken)
    outcomes

let accuracy predictor outcomes =
  let correct = ref 0 and total = ref 0 in
  List.iter
    (fun (addr, taken) ->
      if predictor.Predictor.predict ~addr = taken then incr correct;
      incr total;
      predictor.Predictor.update ~addr ~taken)
    outcomes;
  float_of_int !correct /. float_of_int !total

let biased_stream ~addr ~p ~n ~seed =
  let st = Random.State.make [| seed |] in
  List.init n (fun _ -> (addr, Random.State.float st 1. < p))

let alternating_stream ~addr ~n = List.init n (fun i -> (addr, i mod 2 = 0))

(* ---------- Perceptron ---------- *)

let test_perceptron_biased () =
  let p = Predictor.perceptron () in
  train p (biased_stream ~addr:100 ~p:0.9 ~n:500 ~seed:1);
  let acc = accuracy p (biased_stream ~addr:100 ~p:0.9 ~n:500 ~seed:2) in
  check Alcotest.bool "learns 90% bias" true (acc > 0.8)

let test_perceptron_alternating () =
  let p = Predictor.perceptron () in
  train p (alternating_stream ~addr:100 ~n:400);
  let acc = accuracy p (alternating_stream ~addr:100 ~n:400) in
  check Alcotest.bool "learns alternation" true (acc > 0.95)

let test_perceptron_speculative_no_mutation () =
  let p = Predictor.perceptron () in
  train p (biased_stream ~addr:4 ~p:0.7 ~n:200 ~seed:3);
  let h = p.Predictor.history () in
  let before = p.Predictor.predict ~addr:4 in
  (* speculative queries with a private history must not disturb state *)
  let h' = p.Predictor.shift_history ~history:h ~taken:false in
  ignore (p.Predictor.predict_with_history ~history:h' ~addr:4);
  ignore (p.Predictor.predict_with_history ~history:h' ~addr:8);
  check Alcotest.bool "prediction unchanged" before (p.Predictor.predict ~addr:4);
  check Alcotest.int "history unchanged" h (p.Predictor.history ())

(* ---------- Gshare ---------- *)

let test_gshare_biased () =
  (* short history so the bias is learnable from few samples *)
  let p = Predictor.gshare ~history_length:4 () in
  train p (biased_stream ~addr:100 ~p:0.95 ~n:500 ~seed:4);
  let acc = accuracy p (biased_stream ~addr:100 ~p:0.95 ~n:500 ~seed:5) in
  check Alcotest.bool "learns bias" true (acc > 0.85)

let test_gshare_alternating () =
  let p = Predictor.gshare () in
  train p (alternating_stream ~addr:64 ~n:600);
  let acc = accuracy p (alternating_stream ~addr:64 ~n:200) in
  check Alcotest.bool "history helps" true (acc > 0.9)

(* ---------- Confidence ---------- *)

let test_conf_easy_branch_high () =
  let c = Conf.create () in
  (* always correctly predicted: counters saturate -> high confidence *)
  for _ = 1 to 200 do
    Conf.update c ~addr:12 ~taken:true ~mispredicted:false
  done;
  check Alcotest.bool "high confidence" true
    (Conf.estimate c ~addr:12 = Conf.High_confidence)

let test_conf_hard_branch_low () =
  let c = Conf.create () in
  let st = Random.State.make [| 6 |] in
  let low = ref 0 in
  for _ = 1 to 500 do
    let taken = Random.State.bool st in
    if Conf.is_low (Conf.estimate c ~addr:12) then incr low;
    (* ~45% misprediction rate *)
    Conf.update c ~addr:12 ~taken ~mispredicted:(Random.State.float st 1. < 0.45)
  done;
  check Alcotest.bool "mostly low confidence" true (!low > 400)

let test_conf_moderate_branch_mixed () =
  (* With the saturating decrement, a 95%-correct branch reaches high
     confidence a meaningful fraction of the time. *)
  let c = Conf.create () in
  let st = Random.State.make [| 7 |] in
  let high = ref 0 in
  for _ = 1 to 2000 do
    if not (Conf.is_low (Conf.estimate c ~addr:12)) then incr high;
    Conf.update c ~addr:12 ~taken:true
      ~mispredicted:(Random.State.float st 1. < 0.05)
  done;
  check Alcotest.bool "sometimes high" true (!high > 500)

(* ---------- properties ---------- *)

let qcheck_predict_total =
  QCheck.Test.make ~name:"predictors total over addresses" ~count:200
    QCheck.(pair (int_range 0 1_000_000) bool)
    (fun (addr, taken) ->
      List.for_all
        (fun p ->
          ignore (p.Predictor.predict ~addr);
          p.Predictor.update ~addr ~taken;
          true)
        [ Predictor.perceptron (); Predictor.gshare ();
          Predictor.always ~taken:true ])

let qcheck_shift_history_pure =
  QCheck.Test.make ~name:"shift_history is pure" ~count:200
    QCheck.(pair (int_range 0 10000) bool)
    (fun (h, taken) ->
      let p = Predictor.perceptron () in
      let a = p.Predictor.shift_history ~history:h ~taken in
      let b = p.Predictor.shift_history ~history:h ~taken in
      a = b)

(* The perceptron as first written: [update] recomputes the dot product
   [predict] already computed, reading the history with [History.bit].
   Kept here as the reference the cached, shifting predictor must match
   step for step. *)
module Ref_perceptron = struct
  type t = {
    hist : History.t;
    table : int array array;
    threshold : int;
    mutable history : int;
  }

  let create () =
    let n = 31 in
    { hist = History.make n;
      table = Array.init 256 (fun _ -> Array.make (n + 1) 0);
      threshold = int_of_float ((1.93 *. float_of_int n) +. 14.);
      history = History.empty }

  let row t addr = t.table.(addr mod Array.length t.table)

  let output t ~history ~addr =
    let w = row t addr in
    let acc = ref w.(0) in
    for i = 0 to History.length t.hist - 1 do
      let x = if History.bit t.hist history i then 1 else -1 in
      acc := !acc + (w.(i + 1) * x)
    done;
    !acc

  let clamp v = max (-128) (min 127 v)

  let update t ~addr ~taken =
    let out = output t ~history:t.history ~addr in
    if (out >= 0) <> taken || abs out <= t.threshold then begin
      let w = row t addr in
      let sign = if taken then 1 else -1 in
      w.(0) <- clamp (w.(0) + sign);
      for i = 0 to History.length t.hist - 1 do
        let x = if History.bit t.hist t.history i then 1 else -1 in
        w.(i + 1) <- clamp (w.(i + 1) + (sign * x))
      done
    end;
    t.history <- History.shift t.hist t.history ~taken

  let export t = Array.concat ([| t.history |] :: Array.to_list t.table)

  let import t state =
    let width = Array.length t.table.(0) in
    t.history <- state.(0);
    Array.iteri
      (fun e w -> Array.blit state (1 + (e * width)) w 0 width)
      t.table
end

type perceptron_op =
  | Predict_update of int * bool  (** predict, then update the same addr *)
  | Update of int * bool  (** update with no predict before it *)
  | Predict_other of int * int * bool
      (** predict one addr, then update another *)
  | Speculate of int * bool * int
      (** [predict_with_history] on the current or the previous history,
          xor a small offset *)
  | Snapshot  (** export both states *)
  | Restore  (** import the last snapshot into both *)

let perceptron_op =
  (* Addresses span two table wraps so distinct addresses share rows. *)
  let addr = QCheck.Gen.int_range 0 600 in
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun a t -> Predict_update (a, t)) addr bool);
        (2, map2 (fun a t -> Update (a, t)) addr bool);
        (2, map3 (fun a b t -> Predict_other (a, b, t)) addr addr bool);
        (2, map3 (fun a prev d -> Speculate (a, prev, d)) addr bool
              (int_range 0 3));
        (1, return Snapshot);
        (1, return Restore) ])

let qcheck_perceptron_reference =
  QCheck.Test.make ~name:"perceptron matches reference" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 1 300) perceptron_op))
    (fun ops ->
      let p = Predictor.perceptron () and r = Ref_perceptron.create () in
      let snap = ref (p.Predictor.export_state ()) in
      let previous = ref r.Ref_perceptron.history in
      let update addr taken =
        previous := r.Ref_perceptron.history;
        p.Predictor.update ~addr ~taken;
        Ref_perceptron.update r ~addr ~taken
      in
      let same_state () =
        p.Predictor.history () = r.Ref_perceptron.history
        && p.Predictor.export_state () = Ref_perceptron.export r
      in
      let predict addr =
        p.Predictor.predict ~addr
        = (Ref_perceptron.output r ~history:r.Ref_perceptron.history ~addr >= 0)
      in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Predict_update (addr, taken) ->
                let ok = predict addr in
                update addr taken;
                ok
            | Update (addr, taken) ->
                update addr taken;
                true
            | Predict_other (a, b, taken) ->
                let ok = predict a in
                update b taken;
                ok
            | Speculate (addr, prev, d) ->
                (* Offset 0 queries the architectural history, or the one
                   the last update trained under. *)
                let base =
                  if prev then !previous else r.Ref_perceptron.history
                in
                let history = base lxor d in
                p.Predictor.predict_with_history ~history ~addr
                = (Ref_perceptron.output r ~history ~addr >= 0)
            | Snapshot ->
                snap := p.Predictor.export_state ();
                !snap = Ref_perceptron.export r
            | Restore ->
                p.Predictor.import_state !snap;
                Ref_perceptron.import r !snap;
                true
          in
          agree && same_state ())
        ops)

let () =
  Alcotest.run "dmp_predictor"
    [
      ("history", [ Alcotest.test_case "shift/bit/fold" `Quick test_history ]);
      ( "perceptron",
        [
          Alcotest.test_case "biased" `Quick test_perceptron_biased;
          Alcotest.test_case "alternating" `Quick
            test_perceptron_alternating;
          Alcotest.test_case "speculative queries pure" `Quick
            test_perceptron_speculative_no_mutation;
        ] );
      ( "gshare",
        [
          Alcotest.test_case "biased" `Quick test_gshare_biased;
          Alcotest.test_case "alternating" `Quick test_gshare_alternating;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "easy -> high" `Quick
            test_conf_easy_branch_high;
          Alcotest.test_case "hard -> low" `Quick test_conf_hard_branch_low;
          Alcotest.test_case "moderate -> mixed" `Quick
            test_conf_moderate_branch_mixed;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_predict_total;
          QCheck_alcotest.to_alcotest qcheck_shift_history_pure;
          QCheck_alcotest.to_alcotest qcheck_perceptron_reference;
        ] );
    ]
