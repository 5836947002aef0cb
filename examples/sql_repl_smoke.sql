-- Smoke script for sql_repl (ctest sql_repl_smoke): every statement kind
-- the shell dispatches. The test fails on any "error:" line in the output.
-- 'kv' starts as ids 0..99 in four files, versions 1..4.
SELECT count(*) AS n FROM kv;
SELECT id, val FROM kv WHERE id < 5 ORDER BY id;
DELETE FROM kv WHERE id < 10;
UPDATE kv SET val = val + 1 WHERE id >= 90;
MERGE INTO kv USING (SELECT id + 10 AS id, val FROM kv WHERE id >= 80) AS s
  ON kv.id = s.id
  WHEN MATCHED THEN UPDATE SET val = s.val
  WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.val);
SELECT count(*) AS n, sum(val) AS total FROM kv;
SELECT count(*) AS n FROM kv VERSION AS OF 4;
SELECT l_returnflag, count(*) AS n FROM lineitem
  GROUP BY l_returnflag ORDER BY l_returnflag;
