(* [Mcss_serve.Json] is the leaf codec {!Mcss_json}, re-exported with its
   type so the two are interchangeable. Nothing in this repository's
   libraries uses it; it exists only because the benchmark under
   perfbench/ names [Mcss_serve.Json] and that tree changes only together
   with the benchmark definition. Drop it at the next benchmark change. *)
include Mcss_json
