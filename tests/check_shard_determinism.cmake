# End-to-end intra-circuit sharding determinism on the gdf_atpg binary:
# a sweep must emit byte-identical CSV with fault sharding off and with
# four forced generation shards (the wall-time column is dropped via
# --no-seconds). Registered by tests/CMakeLists.txt twice:
#   * cli_shard_determinism       — SCOPE=full: the whole catalog at the
#                                   paper configuration (the acceptance
#                                   sweep of ISSUE 4);
#   * cli_shard_determinism_small — SCOPE=small: two mid-size circuits
#                                   at the default epoch of 16, cheap
#                                   enough for the ThreadSanitizer CI job.
#
# Usage: cmake -DGDF_ATPG=<path> -DSCOPE=<full|small> -P check_shard_determinism.cmake

if(SCOPE STREQUAL "small")
  set(sweep_args --circuit s298 --circuit s344 --csv --no-seconds --jobs 2)
else()
  set(sweep_args --all --csv --no-seconds --jobs 2)
endif()

execute_process(
  COMMAND ${GDF_ATPG} ${sweep_args} --shard-faults off
  OUTPUT_VARIABLE off_out
  RESULT_VARIABLE off_rc)
if(NOT off_rc EQUAL 0)
  message(FATAL_ERROR "gdf_atpg --shard-faults off failed (rc=${off_rc})")
endif()

execute_process(
  COMMAND ${GDF_ATPG} ${sweep_args} --shard-faults 4
  OUTPUT_VARIABLE shard_out
  RESULT_VARIABLE shard_rc)
if(NOT shard_rc EQUAL 0)
  message(FATAL_ERROR "gdf_atpg --shard-faults 4 failed (rc=${shard_rc})")
endif()

if(NOT off_out STREQUAL shard_out)
  message(FATAL_ERROR "--shard-faults off and 4 output differs:\n"
                      "=== off ===\n${off_out}\n"
                      "=== 4 ===\n${shard_out}")
endif()

string(LENGTH "${off_out}" out_len)
if(out_len EQUAL 0)
  message(FATAL_ERROR "gdf_atpg produced no output")
endif()
message(STATUS
  "shard off and 4 output byte-identical (${SCOPE}, ${out_len} bytes)")
