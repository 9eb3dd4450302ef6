(** Umbrella module: one [open]/alias point for the whole reproduction.

    The paper's contribution lives in {!Select}; everything else is the
    substrate it runs on.  See DESIGN.md for the system inventory and
    EXPERIMENTS.md for the paper-vs-measured record. *)

(* Utilities *)
module Pool = Mps_exec.Pool
module Obs = Mps_obs.Obs
module Json = Mps_util.Json
module Rng = Mps_util.Rng
module Multiset = Mps_util.Multiset
module Bitset = Mps_util.Bitset
module Heap = Mps_util.Heap
module Mstats = Mps_util.Mstats
module Csv = Mps_util.Csv
module Ascii_table = Mps_util.Ascii_table
module Listx = Mps_util.Listx

(* Data-flow graphs (§3) *)
module Color = Mps_dfg.Color
module Dfg = Mps_dfg.Dfg
module Topo = Mps_dfg.Topo
module Levels = Mps_dfg.Levels
module Reachability = Mps_dfg.Reachability
module Dot = Mps_dfg.Dot
module Dfg_parse = Mps_dfg.Parse

(* Patterns and antichains (§3, §5.1) *)
module Pattern = Mps_pattern.Pattern
module Universe = Mps_pattern.Universe
module Antichain = Mps_antichain.Antichain
module Enumerate = Mps_antichain.Enumerate
module Classify = Mps_antichain.Classify
module Posets = Mps_antichain.Posets

(* Schedulers (§4 and baselines) *)
module Node_priority = Mps_scheduler.Node_priority
module Schedule = Mps_scheduler.Schedule
module Multi_pattern = Mps_scheduler.Multi_pattern
module Eval = Mps_scheduler.Eval
module Reference_sched = Mps_scheduler.Reference
module Force_directed = Mps_scheduler.Force_directed
module Optimal = Mps_scheduler.Optimal
module Loop_graph = Mps_scheduler.Loop_graph
module Modulo = Mps_scheduler.Modulo
module Pipeline_code = Mps_scheduler.Pipeline_code

(* Pattern selection — the paper's contribution (§5.2) *)
module Select = Mps_select.Select
module Random_select = Mps_select.Random_select
module Exact = Mps_select.Exact
module Pattern_source = Mps_select.Pattern_source
module Annealing = Mps_select.Annealing
module Beam = Mps_select.Beam
module Shared = Mps_select.Shared
module Portfolio = Mps_select.Portfolio
module Features = Mps_select.Features
module Auto = Mps_select.Auto

(* Expression frontend (Transformation phase, [3]) *)
module Opcode = Mps_frontend.Opcode
module Expr = Mps_frontend.Expr
module Program = Mps_frontend.Program
module Lower = Mps_frontend.Lower
module Rebalance = Mps_frontend.Rebalance
module Program_text = Mps_frontend.Program_text

(* Clustering phase ([3]) *)
module Cluster = Mps_clustering.Cluster
module Program_fuse = Mps_clustering.Program_fuse

(* Workloads (§4.3, §6) *)
module Paper_graphs = Mps_workloads.Paper_graphs
module Dft = Mps_workloads.Dft
module Kernels = Mps_workloads.Kernels
module Image = Mps_workloads.Image
module Sorting = Mps_workloads.Sorting
module Cordic = Mps_workloads.Cordic
module Ofdm = Mps_workloads.Ofdm
module Loops = Mps_workloads.Loops
module Random_dag = Mps_workloads.Random_dag
module Suite = Mps_workloads.Suite

(* Montium tile model (§1, Fig. 1) *)
module Tile = Mps_montium.Tile
module Allocation = Mps_montium.Allocation
module Simulator = Mps_montium.Simulator
module Config_space = Mps_montium.Config_space
module Energy = Mps_montium.Energy
module Register_file = Mps_montium.Register_file
module Fixed_point = Mps_montium.Fixed_point
module Codegen = Mps_montium.Codegen
module Listing_vm = Mps_montium.Listing_vm

(* End-to-end flow *)
module Pipeline = Pipeline
