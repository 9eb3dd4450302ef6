module Color = Mps_dfg.Color
module Program = Mps_frontend.Program

type entry = {
  name : string;
  build : unit -> Mps_dfg.Dfg.t;
  blurb : string;
}

let prog f () = Program.dfg (f ())

let rand ?(layers = 6) ?(width = 6) ?(edge_prob = 0.4) ?(locality = 2)
    ?palette ~seed () =
  let palette =
    match palette with
    | Some p -> p
    | None -> Random_dag.default_params.Random_dag.palette
  in
  Random_dag.generate
    ~params:{ Random_dag.layers; width; edge_prob; locality; palette }
    ~seed ()

let taps8 = [ 0.5; -0.25; 0.125; 0.75; -0.5; 0.25; -0.125; 1.0 ]

(* Base corpus: the paper's figures, the bench DFT family, contrasting
   DSP kernels, and adversarial random suites that each push one feature
   to an extreme (so the fit cannot lean on a single workload family).
   Kept small enough that a full portfolio replay over the list stays a
   smoke-budget operation. *)
let base =
  [
    { name = "3dft"; build = Paper_graphs.fig2_3dft; blurb = "paper Fig. 2 3-point DFT" };
    { name = "fig4"; build = Paper_graphs.fig4_small; blurb = "paper Fig. 4 example" };
    { name = "w3dft"; build = prog Dft.winograd3; blurb = "Winograd 3-point DFT" };
    { name = "w5dft"; build = prog Dft.winograd5; blurb = "Winograd 5-point DFT" };
    { name = "fft8"; build = (fun () -> Program.dfg (Dft.radix2_fft ~n:8)); blurb = "radix-2 FFT, 8 points" };
    { name = "dct8"; build = prog Kernels.dct8; blurb = "8-point DCT-II" };
    {
      name = "mm222";
      build = (fun () -> Program.dfg (Kernels.matmul ~m:2 ~k:2 ~n:2));
      blurb = "2x2 by 2x2 matmul";
    };
    {
      name = "fir8";
      build = (fun () -> Program.dfg (Kernels.fir ~taps:taps8 ~block:4));
      blurb = "8-tap FIR over a 4-sample block";
    };
    {
      name = "iir4";
      build =
        (fun () ->
          Program.dfg
            (Kernels.iir_biquad ~b:(0.2, 0.4, 0.2) ~a:(-0.5, 0.25) ~block:4));
      blurb = "biquad IIR, 4-sample block (serial recurrence)";
    };
    {
      name = "horner16";
      build = (fun () -> Program.dfg (Kernels.horner ~degree:16));
      blurb = "degree-16 Horner chain (maximally serial)";
    };
    {
      name = "adv-wide";
      build = rand ~layers:3 ~width:10 ~edge_prob:0.3 ~locality:1 ~seed:101;
      blurb = "random: 3 layers x width 10 (antichain-heavy)";
    };
    {
      name = "adv-deep";
      build = rand ~layers:24 ~width:2 ~edge_prob:0.6 ~locality:1 ~seed:102;
      blurb = "random: 24 layers x width 2 (chain-like)";
    };
    {
      name = "adv-dense";
      build = rand ~layers:6 ~width:6 ~edge_prob:0.9 ~locality:3 ~seed:103;
      blurb = "random: dense edges, locality 3";
    };
    {
      name = "adv-mono";
      build =
        rand ~layers:5 ~width:6 ~edge_prob:0.4 ~locality:2
          ~palette:[ (Color.of_char 'a', 1) ]
          ~seed:104;
      blurb = "random: single color (pattern-trivial)";
    };
    {
      name = "adv-rainbow";
      build =
        rand ~layers:5 ~width:6 ~edge_prob:0.4 ~locality:2
          ~palette:
            [
              (Color.of_char 'a', 1); (Color.of_char 'b', 1);
              (Color.of_char 'c', 1); (Color.of_char 'd', 1);
              (Color.of_char 'e', 1); (Color.of_char 'f', 1);
            ]
          ~seed:105;
      blurb = "random: six equal colors (pattern-hostile)";
    };
  ]

(* Full-only extras: the larger instances that make the offline fit
   honest but cost too much for a smoke gate. *)
let extras =
  [
    {
      name = "fft16";
      build = (fun () -> Program.dfg (Dft.radix2_fft ~n:16));
      blurb = "radix-2 FFT, 16 points";
    };
    {
      name = "dft4";
      build = (fun () -> Program.dfg (Dft.direct ~n:4));
      blurb = "direct 4-point DFT (sum-of-products)";
    };
    {
      name = "mm232";
      build = (fun () -> Program.dfg (Kernels.matmul ~m:2 ~k:3 ~n:2));
      blurb = "2x3 by 3x2 matmul";
    };
    {
      name = "fir16";
      build =
        (fun () -> Program.dfg (Kernels.fir ~taps:(taps8 @ taps8) ~block:8));
      blurb = "16-tap FIR over an 8-sample block";
    };
    {
      name = "adv-big";
      build = rand ~layers:10 ~width:8 ~edge_prob:0.5 ~locality:2 ~seed:106;
      blurb = "random: 10 layers x width 8";
    };
  ]

(* Huge tier: layered-random DAGs big enough that classification
   dominates wall-clock, which is where --jobs scaling is measured; still
   seconds, not minutes, per graph so the full selector fit can afford
   them. *)
let huge_tier =
  [
    {
      name = "huge-grid";
      build = rand ~layers:36 ~width:13 ~edge_prob:0.35 ~locality:2 ~seed:201;
      blurb = "random: 36 layers x width 13 (balanced)";
    };
    {
      name = "huge-wide";
      build = rand ~layers:12 ~width:20 ~edge_prob:0.3 ~locality:1 ~seed:202;
      blurb = "random: 12 layers x width 20 (antichain-heavy)";
    };
    {
      name = "huge-deep";
      build = rand ~layers:64 ~width:6 ~edge_prob:0.5 ~locality:2 ~seed:203;
      blurb = "random: 64 layers x width 6 (chain-like)";
    };
  ]

let corpus ?(full = false) ?(huge = false) () =
  base @ (if full then extras else []) @ if huge then huge_tier else []

let find name =
  List.find_opt (fun e -> e.name = name) (base @ extras @ huge_tier)

let graphs ?full ?huge () =
  List.map (fun e -> (e.name, e.build ())) (corpus ?full ?huge ())
