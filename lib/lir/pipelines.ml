let pass name = (name, [||])

let o0 : Compile.spec = []

let o1 : Compile.spec =
  [ pass "simplifycfg"; pass "constfold"; pass "instsimplify"; pass "copyprop";
    pass "gvn"; pass "dce"; pass "guard-dedupe"; pass "branch-predict" ]

let o2 : Compile.spec =
  [ pass "simplifycfg"; pass "constfold"; pass "instsimplify"; pass "copyprop";
    ("inline", [| 60; |]); pass "constfold"; pass "instsimplify";
    pass "copyprop"; pass "gvn"; pass "lse"; pass "licm"; pass "guard-dedupe";
    pass "bce"; pass "reassociate"; pass "dce"; pass "simplifycfg";
    pass "branch-predict" ]

let o3 : Compile.spec =
  [ pass "simplifycfg"; pass "constfold"; pass "instsimplify"; pass "copyprop";
    ("inline", [| 120 |]); pass "constfold"; pass "instsimplify";
    pass "copyprop"; pass "gvn"; pass "lse"; pass "licm"; pass "guard-dedupe";
    pass "bce"; pass "reassociate";
    ("unroll", [| 4; 64; 0 |]);
    pass "constfold"; pass "copyprop"; pass "gvn"; pass "lse";
    pass "guard-dedupe"; pass "dce"; pass "simplifycfg"; pass "branch-predict" ]

(* o1/o2/o3 share their leading genes (o2 and o3 agree on the first four,
   o1 on the same head minus the inline block), which is what makes the
   preset family a natural stage-cache workload: compiling them in order
   reuses each predecessor's common prefix. *)
let all = [ ("O0", o0); ("O1", o1); ("O2", o2); ("O3", o3) ]
