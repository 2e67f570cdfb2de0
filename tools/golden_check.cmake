# Golden-output checks for seraph_run, registered as ctests in
# tools/CMakeLists.txt:
#
#   cmake -DSERAPH_RUN=<binary> -DQUERY=<query.seraph> -DEVENTS=<events.log>
#         -DEXPECTED=<expected.csv> -DWORK_DIR=<scratch dir>
#         -DMODE=<memory|durable|restore|bounded|progress|sink_chaos>
#         -P golden_check.cmake
#
# memory / durable: the --csv output equals EXPECTED byte for byte; the
#   durable run checkpoints into a fresh directory.
# restore: a durable run, then --restore over its finished directory; the
#   two outputs together (the second's CSV header dropped) equal EXPECTED,
#   so the restored run adds no duplicate rows.
# bounded: the durable run with a two-slot lane queue that refuses when
#   full (--queue-capacity=2 --overflow-policy=reject) equals EXPECTED, and
#   a --restore over it under the same bound prints no row: retention must
#   free space through checkpoint commits, in the run and in the replay.
# progress: --progress=3 over EVENTS whose 15:15 element is split into
#   two elements of the same timestamp equals EXPECTED: a progress pump
#   must not evaluate an instant whose elements have not all arrived.
# sink_chaos: --dead-letter under SERAPH_FAULT_POINTS="sink.emit=0.8",
#   seeded by SERAPH_FAULT_SEED from the environment. Every EXPECTED row
#   appears exactly once: on stdout, or inside a dead-lettered result of
#   the same query and evaluation time (a quarantined sink's results are
#   dead-lettered too). At least one result must be dead-lettered,
#   so the check never passes without exercising the retry -> dead-letter
#   path (at 0.8 each delivery exhausts its three attempts with
#   probability 0.51, over about a dozen evaluations).

function(run_seraph out_var)
  execute_process(COMMAND ${SERAPH_RUN} ${QUERY} ${EVENTS} --csv ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "seraph_run ${ARGN} exited with ${rc}:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(run_seraph_err "${err}" PARENT_SCOPE)
endfunction()

# Drops the first line (the CSV header) of the variable named `var`.
# (string(REGEX REPLACE "^...") would not do: CMake re-anchors `^` after
# every replacement.)
macro(drop_first_line var)
  string(FIND "${${var}}" "\n" newline)
  if(newline EQUAL -1)
    set(${var} "")
  else()
    math(EXPR newline "${newline} + 1")
    string(SUBSTRING "${${var}}" ${newline} -1 ${var})
  endif()
endmacro()

# Adds `n` to the counter variable named `name` in the caller's scope.
macro(add_count name n)
  if(NOT DEFINED ${name})
    set(${name} 0)
  endif()
  math(EXPR ${name} "${${name}} + ${n}")
endmacro()

file(READ ${EXPECTED} expected)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

if(MODE STREQUAL "memory")
  run_seraph(got)
elseif(MODE STREQUAL "durable")
  run_seraph(got --checkpoint-dir=${WORK_DIR}/ckpt)
elseif(MODE STREQUAL "restore")
  run_seraph(first --checkpoint-dir=${WORK_DIR}/ckpt)
  run_seraph(second --checkpoint-dir=${WORK_DIR}/ckpt --restore)
  drop_first_line(second)
  set(got "${first}${second}")
elseif(MODE STREQUAL "bounded")
  set(bounded --checkpoint-dir=${WORK_DIR}/ckpt --queue-capacity=2
      --overflow-policy=reject)
  run_seraph(got ${bounded})
  run_seraph(again ${bounded} --restore)
  drop_first_line(again)
  if(NOT again STREQUAL "")
    message(FATAL_ERROR "the bounded --restore printed rows:\n${again}")
  endif()
elseif(MODE STREQUAL "progress")
  run_seraph(got --progress=3)
elseif(MODE STREQUAL "sink_chaos")
  set(ENV{SERAPH_FAULT_POINTS} "sink.emit=0.8")
  run_seraph(printed --dead-letter=${WORK_DIR}/dlq.jsonl)
  # Dead-lettered results, counted per (query, evaluation time).
  set(keys)
  set(entries)
  set(dead_lettered 0)
  if(EXISTS ${WORK_DIR}/dlq.jsonl)
    file(STRINGS ${WORK_DIR}/dlq.jsonl entries)
  endif()
  foreach(entry IN LISTS entries)
    string(JSON kind GET "${entry}" kind)
    if(NOT kind STREQUAL "sink_result")
      continue()
    endif()
    math(EXPR dead_lettered "${dead_lettered} + 1")
    string(JSON query GET "${entry}" query)
    string(JSON at GET "${entry}" at)
    string(JSON rows LENGTH "${entry}" rows)
    string(MAKE_C_IDENTIFIER "${query},${at}" id)
    add_count(dead_${id} ${rows})
    list(APPEND keys ${id})
  endforeach()
  if(dead_lettered EQUAL 0)
    message(FATAL_ERROR "no result was dead-lettered: the retry -> "
      "dead-letter path went unexercised")
  endif()
  # Printed rows must be golden rows, each printed at most once.
  set(pool "${expected}")
  drop_first_line(pool)
  drop_first_line(printed)
  string(STRIP "${pool}" pool)
  string(STRIP "${printed}" printed)
  string(REPLACE "\n" ";" pool "${pool}")
  string(REPLACE "\n" ";" printed "${printed}")
  foreach(row IN LISTS printed)
    list(FIND pool "${row}" index)
    if(index EQUAL -1)
      message(FATAL_ERROR "printed row is not golden or printed twice: ${row}")
    endif()
    list(REMOVE_AT pool ${index})
  endforeach()
  # Every golden row left over must be in the dead-letter file.
  foreach(row IN LISTS pool)
    string(REGEX MATCH "^[^,]*,([^,]*)" key "${row}")
    string(MAKE_C_IDENTIFIER "${key}" id)
    add_count(missing_${id} 1)
    list(APPEND keys ${id})
  endforeach()
  list(REMOVE_DUPLICATES keys)
  foreach(id IN LISTS keys)
    add_count(missing_${id} 0)
    add_count(dead_${id} 0)
    if(NOT missing_${id} EQUAL dead_${id})
      message(FATAL_ERROR "${id}: ${missing_${id}} golden row(s) missing "
        "from stdout, ${dead_${id}} dead-lettered")
    endif()
  endforeach()
  set(quarantine "no quarantine")
  if(run_seraph_err MATCHES "output sink quarantined")
    set(quarantine "sink quarantined")
  endif()
  message(STATUS "sink chaos: ${dead_lettered} dead-lettered result(s), "
    "${quarantine}; every golden row delivered or dead-lettered once")
  set(got "${expected}")
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

if(NOT got STREQUAL expected)
  message(FATAL_ERROR "seraph_run output differs from ${EXPECTED}\n"
    "--- got ---\n${got}--- expected ---\n${expected}")
endif()
