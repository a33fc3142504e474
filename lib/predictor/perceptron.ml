(* Perceptron branch predictor (Jiménez & Lin, HPCA-7), the paper's
   baseline predictor. One weight vector per table entry; prediction is
   the sign of the dot product of the weights with the global history. *)

type t = {
  hist : History.t;
  table : int array array;  (* entries x (hist_len + 1 bias) weights *)
  threshold : int;
  weight_max : int;
  weight_min : int;
  mutable history : int;
  (* The last dot product computed: [cached_out] for table row
     [cached_row] under [cached_history]. A row's weights change only in
     [update] and [import], which clear the entry, so [update] reuses
     the output [predict] computed for the same branch. *)
  mutable cached_row : int;
  mutable cached_history : int;
  mutable cached_out : int;
}

(* No row index equals it: indices lie strictly between -entries and
   entries. *)
let no_row = max_int

let create ?(entries = 256) ?(history_length = 31) () =
  let hist = History.make history_length in
  {
    hist;
    table = Array.init entries (fun _ -> Array.make (history_length + 1) 0);
    threshold = int_of_float ((1.93 *. float_of_int history_length) +. 14.);
    weight_max = 127;
    weight_min = -128;
    history = History.empty;
    cached_row = no_row;
    cached_history = 0;
    cached_out = 0;
  }

let history t = t.history
let index t addr = addr mod Array.length t.table

(* Flat state snapshot: the global history followed by every weight in
   table order. [import] restores a snapshot taken from an identically
   shaped predictor; the length check catches geometry mismatches. *)
let export t =
  let entries = Array.length t.table in
  let width = Array.length t.table.(0) in
  let out = Array.make (1 + (entries * width)) 0 in
  out.(0) <- t.history;
  for e = 0 to entries - 1 do
    Array.blit t.table.(e) 0 out (1 + (e * width)) width
  done;
  out

let import t state =
  let entries = Array.length t.table in
  let width = Array.length t.table.(0) in
  if Array.length state <> 1 + (entries * width) then
    invalid_arg "Perceptron.import: state length mismatch";
  t.history <- state.(0);
  t.cached_row <- no_row;
  for e = 0 to entries - 1 do
    Array.blit state (1 + (e * width)) t.table.(e) 0 width
  done

(* Bias plus the weights, each added where its history bit is 1 and
   subtracted where it is 0; the history shifts right one bit per
   weight (bit 0 is the latest outcome). *)
let output t ~history ~addr =
  let row = index t addr in
  if row = t.cached_row && history = t.cached_history then t.cached_out
  else begin
    let w = t.table.(row) in
    let acc = ref w.(0) and h = ref history in
    for i = 1 to Array.length w - 1 do
      acc := if !h land 1 = 1 then !acc + w.(i) else !acc - w.(i);
      h := !h lsr 1
    done;
    t.cached_row <- row;
    t.cached_history <- history;
    t.cached_out <- !acc;
    !acc
  end

let predict_with_history t ~history ~addr = output t ~history ~addr >= 0
let predict t ~addr = predict_with_history t ~history:t.history ~addr
let shift t ~history ~taken = History.shift t.hist history ~taken

let clamp t v = if v > t.weight_max then t.weight_max
  else if v < t.weight_min then t.weight_min else v

let update t ~addr ~taken =
  let out = output t ~history:t.history ~addr in
  let predicted_taken = out >= 0 in
  if predicted_taken <> taken || abs out <= t.threshold then begin
    let w = t.table.(index t addr) in
    let sign = if taken then 1 else -1 in
    w.(0) <- clamp t (w.(0) + sign);
    let h = ref t.history in
    for i = 1 to Array.length w - 1 do
      let x = if !h land 1 = 1 then sign else -sign in
      w.(i) <- clamp t (w.(i) + x);
      h := !h lsr 1
    done;
    t.cached_row <- no_row
  end;
  t.history <- History.shift t.hist t.history ~taken
